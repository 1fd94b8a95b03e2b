"""Linear matrix pencils and their tensor-product evaluations.

A pencil is a coefficient list ``B_0, ..., B_k`` of Hermitian ``d x d``
matrices.  It evaluates at a k-tuple of ``n x n`` arguments as

    L(X) = B_0 (x) I + sum_i B_i (x) X_i

with the coefficient space always the *first* tensor factor, so block
(r, s) of the evaluation is the n x n matrix ``sum_i B_i[r, s] X_i``.
``kron_sum`` computes every such sum, over stacks of coefficients and of
arguments at once.

Validated pencils carry the semidefiniteness invariants: every B_i is PSD
and B_0 dominates the coefficient sum.  ``RawPencil`` skips validation for
intermediate work (homogeneous pencils with B_0 = 0 in particular).

Validation works one exact block at a time.  The blocks are the connected
components of the union of the coefficients' exact nonzero patterns
(``matcore.exact_blocks``), so a direct sum of cells, such as a quadrature
representation's, takes one small ``eigvalsh`` per cell size where a dense
pencil, one block, takes one of the whole matrix.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    ArityMismatch,
    CoefficientNotPSD,
    DominanceViolated,
    InputNotSectorial,
    NotSectorial,
)
from .matcore import (
    DEFAULT_TOL,
    RANK_CUT,
    SectorEstimate,
    Tolerances,
    block_diag,
    check_args,
    dagger,
    exact_blocks,
    herm_part,
    readonly,
    require_psd,
    sector_estimate,
)

__all__ = [
    "RawPencil",
    "LinearPencil",
    "pencil_new",
    "kron_sum",
    "pencil_arguments",
    "pencil_eval",
    "pencil_eval_shifted",
    "pencil_direct_sum",
    "pencil_sectorial_check",
    "range_basis",
    "range_cut",
]


@dataclass(frozen=True)
class RawPencil:
    """Coefficient list checked by ``matcore.check_args`` only: finite, square, of one size, no stack.

    The coefficients are kept read-only (``matcore.readonly``, which copies
    any array the caller can still write), so a ``schur.SchurCore`` built
    from them cannot go stale.
    """

    coeffs: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) < 2:
            raise ArityMismatch("a pencil needs B_0 and at least one B_i")
        coeffs = check_args(self.coeffs, len(self.coeffs), "pencil", one=True)
        object.__setattr__(self, "coeffs", tuple(readonly(b) for b in coeffs))

    @property
    def arity(self) -> int:
        return len(self.coeffs) - 1

    @property
    def size(self) -> int:
        return self.coeffs[0].shape[0]

    @property
    def b0(self) -> np.ndarray:
        return self.coeffs[0]

    @property
    def bi(self) -> tuple[np.ndarray, ...]:
        return self.coeffs[1:]

    @cached_property
    def cores(self) -> weakref.WeakSet:
        """This pencil's live ``schur.SchurCore``s (``schur.shared_core``).

        Held weakly: a core refers to its pencil, so a strong reference would
        keep both alive until the cyclic garbage collector ran.
        """
        return weakref.WeakSet()


@dataclass(frozen=True)
class LinearPencil(RawPencil):
    """Validated pencil: all coefficients PSD, B_0 >= sum of the others.

    ``coeff_margin`` is the smallest eigenvalue over all B_i and
    ``dominance_margin`` is lambda_min(B_0 - sum B_i); both are recorded at
    validation time.
    """

    coeff_margin: float = field(default=0.0, compare=False)
    dominance_margin: float = field(default=0.0, compare=False)


def pencil_new(
    coeffs: list[np.ndarray] | tuple[np.ndarray, ...],
    tol: Tolerances = DEFAULT_TOL,
    margins: list[float] | None = None,
) -> LinearPencil:
    """Validate coefficients and build a LinearPencil.

    The coefficients take ``matcore.check_args``, as ``RawPencil``'s do,
    and fewer than two are refused (ArityMismatch); their Hermitian parts
    are taken once and kept by the pencil without a further copy.  B_0, the B_i
    and B_0 - sum B_i are checked block by block, on the blocks of the union
    of their nonzero patterns, each against the ``psd_floor`` of its whole
    matrix.  Raises CoefficientNotPSD or DominanceViolated with the
    offending margin (``matcore.require_psd``).  ``margins``, when given,
    are lambda_min of B_1, ..., B_k, which the caller has already held to
    the same PSD floor; they are used as they are, and only B_0 is checked.
    """
    coeffs = check_args(coeffs, max(len(coeffs), 2), "pencil", one=True)  # B_0 and at least one B_i
    hermed = tuple(herm_part(np.asarray(b, dtype=complex)) for b in coeffs)
    for b in hermed:  # fresh, so frozen here and kept by LinearPencil without a copy
        b.setflags(write=False)
    blocks = exact_blocks(hermed)
    if margins is None:
        margins = [require_psd(b, CoefficientNotPSD, f"B_{idx}", tol, blocks) for idx, b in enumerate(hermed[1:], 1)]
    coeff_margin = min(require_psd(hermed[0], CoefficientNotPSD, "B_0", tol, blocks), *margins)
    dom = require_psd(hermed[0] - sum(hermed[1:]), DominanceViolated, "B_0 - sum(B_i)", tol, blocks)
    return LinearPencil(hermed, coeff_margin=float(coeff_margin), dominance_margin=float(dom))


def kron_sum(coeffs: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """sum_i C_i (x) M_i for stacks C of shape (..., K, d, d) and M of shape (..., K, n, n).

    The leading axes broadcast against each other; the result has shape
    (..., d n, d n), and its block (r, s) is sum_i C_i[r, s] M_i.  Every
    pencil evaluation in the package is one call to this.
    """
    c = np.asarray(coeffs, dtype=complex)
    m = np.asarray(mats, dtype=complex)
    out = np.einsum("...irs,...iab->...rasb", c, m)
    size = c.shape[-1] * m.shape[-1]
    return out.reshape(out.shape[:-4] + (size, size))


def pencil_arguments(pencil: RawPencil, x, shifted: bool, one: bool = False) -> np.ndarray:
    """The stack (I, X_1, ..., X_k), or (I, X_1 - I, ..., X_k - I) when shifted, as complex arrays.

    The tuple takes ``matcore.check_args`` against the pencil's arity, the
    one check of every pencil evaluation (``pencil_eval``,
    ``pencil_eval_shifted``, ``pencil_sectorial_check`` and
    ``schur.SchurCore.evaluate``, so ``schur_pencil`` and
    ``represent.rep_eval_complex``).  Arguments may be stacked on leading
    axes, unless ``one``; the stack axis is third from last.
    """
    xs = tuple(np.asarray(m, dtype=complex) for m in check_args(x, pencil.arity, "pencil", one))
    eye = np.eye(xs[0].shape[-1])
    terms = (xi - eye for xi in xs) if shifted else xs
    return np.stack(np.broadcast_arrays(eye, *terms), axis=-3)


def pencil_eval(pencil: RawPencil, x: tuple[np.ndarray, ...]) -> np.ndarray:
    """L(X) = B_0 (x) I + sum B_i (x) X_i."""
    return kron_sum(np.stack(pencil.coeffs), pencil_arguments(pencil, x, shifted=False))


def pencil_eval_shifted(pencil: RawPencil, x: tuple[np.ndarray, ...]) -> np.ndarray:
    """B_0 (x) I + sum B_i (x) (X_i - I)."""
    return kron_sum(np.stack(pencil.coeffs), pencil_arguments(pencil, x, shifted=True))


def pencil_direct_sum(pencils: list[LinearPencil] | list[RawPencil]) -> LinearPencil:
    """Coefficient-wise block-diagonal sum of pencils of common arity."""
    if not pencils:
        raise ArityMismatch("empty pencil list")
    k = pencils[0].arity
    for p in pencils:
        if p.arity != k:
            raise ArityMismatch("direct sum requires a common arity")
    return pencil_new([block_diag(*(p.coeffs[i] for p in pencils)) for i in range(k + 1)])


def range_cut(w: np.ndarray) -> np.ndarray:
    """Which of the ascending eigenvalues ``w`` (..., d) of PSD matrices lie in the numerical range-space.

    Eigenvalues at or below ``RANK_CUT * lambda_max`` count as zero.
    """
    return w > RANK_CUT * np.maximum(w[..., -1:], 0.0)


def range_basis(a: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning the numerical range-space of PSD ``a`` (``range_cut``)."""
    w, u = np.linalg.eigh(herm_part(np.asarray(a, dtype=complex)))
    return u[:, range_cut(w)]


def pencil_sectorial_check(
    pencil: RawPencil,
    x: tuple[np.ndarray, ...],
    tol: Tolerances = DEFAULT_TOL,
) -> SectorEstimate:
    """Sector estimate of L(X) compressed to ran(sum B_i) (x) E.

    Takes one tuple: a stacked one is refused (DimensionMismatch).  Every
    argument must itself be sectorial: raises InputNotSectorial when some
    X_i fails its own sector estimate.  The angle of the compressed
    evaluation cannot exceed the largest argument angle (up to rounding):
    each B_i (x) X_i lies in the sector of X_i.
    """
    args = pencil_arguments(pencil, x, shifted=False, one=True)
    for idx, xi in enumerate(args[1:]):
        try:
            sector_estimate(xi, tol)
        except NotSectorial as exc:
            raise InputNotSectorial(f"argument {idx + 1} is not sectorial: {exc}") from exc
    q = range_basis(sum(pencil.bi))
    compressed = kron_sum(dagger(q) @ np.stack(pencil.coeffs) @ q, args)
    return sector_estimate(compressed, tol)
