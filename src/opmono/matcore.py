"""Dense complex linear-algebra substrate.

Hermitian certification, the Loewner (positive semidefinite) order,
functional calculus through eigendecompositions, Kronecker products,
real/imaginary parts, numerical-range sector estimation and truncated
pseudoinverses.

All matrix functions accept stacked inputs with shape ``(..., n, n)`` and
broadcast over the leading axes; single matrices are the zero-leading-axes
case.  ``check_args`` is the one argument check of every public entry point
that takes a tuple of such matrices (``FreeFn`` calls, the pencil
evaluations, the representations, the means, ``mobius_apply``,
``frechet_derivative`` and ``support_pencil``), one matrix (``herm_certify``,
``funcalc``, ``sector_estimate``, ``schur.shorted_psd`` and
``schur.schur_generic``), a pencil's coefficient list (``pencil.RawPencil``
and ``pencil.pencil_new``) or a representation's state
(``represent.PencilRepresentation``).  The algebra primitives
``re_part``, ``im_part`` and ``block_diag`` pass through what they are
given and only refuse a shape that is not square.  A matrix whose exact
nonzero pattern splits into blocks (``components``, ``exact_blocks``)
takes ``min_eig`` one block size at a time.  The two tolerances of
``Tolerances``, ``psd`` and the ``eq`` it fixes, are relative: every
threshold is scaled by ``(1 + Frobenius norm)`` of the quantity it guards,
member by member, except the testers' floor, which is scaled by the norms
of a checked difference's terms alone.  The rank cut is one constant, ``RANK_CUT``, taken relative
to the largest singular value, eigenvalue or coefficient entry it cuts
against, and to ``(1 + ||rhs||_F)`` for an elimination's residual.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    ArityMismatch,
    BadConfig,
    DimensionMismatch,
    DomainViolation,
    NotHermitian,
    NotSectorial,
    OpmonoError,
    SpectrumOutOfDomain,
)

__all__ = [
    "Tolerances",
    "DEFAULT_TOL",
    "RANK_CUT",
    "SectorEstimate",
    "check_args",
    "check_interval",
    "is_count",
    "cholesky_proves",
    "cholesky_shift",
    "components",
    "block_index",
    "exact_blocks",
    "dagger",
    "herm_part",
    "fro_norm",
    "herm_certify",
    "loewner_leq",
    "loewner_margin",
    "min_eig",
    "psd_floor",
    "readonly",
    "require_psd",
    "funcalc",
    "tensor",
    "block_diag",
    "re_part",
    "im_part",
    "sector_estimate",
    "sector_certified_alpha",
    "truncated_pinv",
    "unit_vector",
]


@dataclass(frozen=True)
class Tolerances:
    """Relative tolerance bundle.

    psd: semidefiniteness slack and Hermitian-defect acceptance
    (``herm_certify``), the one value that ``--tol`` sets.  It must be
    finite and nonnegative (BadConfig): a NaN or infinite bound would pass
    every check.  The tolerance of generic equality comparisons is no
    setting but the property ``eq`` = max(psd, 1e-8), and the rank cut of
    every elimination, range cut and pole test is the constant
    ``RANK_CUT``; no caller chooses either.

    One PSD rule serves every Loewner check in the package: a Hermitian
    matrix x counts as PSD when lambda_min(x) >= -psd (1 + ||x||_F), the
    floor taken per member of a stack (``psd_floor``; ``require_psd`` raises
    the caller's typed error).  A checked difference x = P - Q is formed
    with the rounding of its terms, about eps (||P||_F + ||Q||_F) however
    small x is, so the testers' scan (``cert._scan``) takes the floor
    psd max(||P||_F + ||Q||_F, tiny) instead, Q = 0 for a matrix checked
    alone.  It has no absolute 1: the terms carry the unit of the
    arguments, so the floor scales with the margins and no verdict depends
    on that unit, and tiny, the smallest normal number, keeps a floor below
    a difference of exact zeros.  Only the derivative tester's
    finite-difference stencil widens the rule, to 10 psd; its
    Loewner-matrix paths for the lifts and the two-argument means keep the
    plain rule.

    The half-space checks (``schur``'s membership tests and
    ``SchurCore.evaluate``'s rotated-block and ``Im F`` checks) compare
    ``min_eig`` with a floor, and ``rep_eval``'s domain check with 0.  Every
    benchmarked path hands them one matrix at a time, where a Cholesky
    screen costs more than the eigenvalue it would save.

    The testers' scan reports a value, but a passing report reads only the
    smallest margin, and a failing one the first margin below its bound.
    So the scan takes ``min_eig`` of the 32 members of a stack with the
    smallest diagonal entry, an upper bound on lambda_min, and m, the
    least of these margins, and screens every other member at its own level
    max(m, bound): a Cholesky of Herm(x) - (level + 32 n^2 eps (||x||_F +
    |level|)) I (``cholesky_shift``), one outcome per member
    (``cholesky_proves``, an outer-product loop over the columns,
    vectorized over the members).  Cholesky runs to completion only on a
    matrix that is positive definite up to a backward error of about n^2 eps
    times its norm (Demmel, LAPACK Working Note 14; Higham, Thm 10.5), so a
    member it proves has a margin above m and above its bound by more than
    ``eigvalsh``'s rounding, and it can set neither reading; only the
    members left open take ``eigvalsh``.  Where an exact margin falls below
    its bound, or a value is not finite, every member takes ``min_eig``, so
    every report keeps its bits.  The other checks that report a value
    (``require_psd``, the support margins, ``_aim`` and the cone bound's
    margin and constants) keep ``min_eig``, as does ``loewner_leq``, whose
    stacks no benchmarked path checks.

    One elimination policy serves every Schur complement: pencil
    evaluations (``schur.SchurCore``), shorted operators and general
    matrices.  An eliminated block D is inverted by LU when
    ``RANK_CUT * ||D||_F ||D^{-1}||_F < 1``, so that no singular value lies
    at or below ``RANK_CUT * sigma_max``, and through the pseudoinverse
    truncated there otherwise.  Either inverse takes two steps of iterative
    refinement, and the residual ||D sol - rhs||_F must then stay within
    ``RANK_CUT * (1 + ||rhs||_F)``, else EliminatedBlockDefective.  The
    condition test, not an LU residual, picks the route: on a numerically
    singular block a small LU residual holds for any right-hand side and
    does not show range inclusion.  The essential subspace of a set of PSD
    coefficients is the range of their sum cut at ``RANK_CUT * lambda_max``
    (``pencil.range_basis``); coefficient entries at or below ``RANK_CUT``
    times the largest do not couple two directions.

    ``schur.SchurCore`` certifies an eliminated component sectorial on its
    essential block L~ normalized to unit coefficient weights by the
    congruence W^{-1/2}, W the weights kept by the cut: the floor is
    lambda_min(Re(e^{i theta} L~)) > psd (1 + ||L~||_F) + 16 eps kappa
    ||L~||_F, kappa = w_max / w_min < 1 / RANK_CUT.  Relative to the unit
    weights the congruence amplifies the rounding of the weakest direction
    up to kappa times, and the second term bounds it, so no ``psd``, however
    tight, certifies a block at rounding level.  Most members never form L~:
    the cone bound of ``SchurCore.evaluate``, m lambda_min(Herm A_0) less
    the PSD, dominance and Hermitian deficits of the computed coefficients
    A_j and 32 (r n + K)^2 eps s for rounding, bounds lambda_min(Re(e^{i
    theta} L~)) from below, with m = min(cos theta, min_i lambda_min Re(e^{i
    theta} X_i)) and s = sum_j ||A_j||_F ||Y_j||_F >= ||L~||_F.  It settles
    a member when it exceeds this floor taken at s (1 + 32 (r n + K)^2 eps),
    which is at least the floor at ||L~||_F; the members it leaves open form
    L~ and take the check above.  The sec^2(alpha) bound on each eliminated
    component's complement S compares ||S||_2 with sec^2(alpha) ||L||_2 (1 +
    eq) only for the members two tolerance-free tiers leave open: ||S||_F <=
    max_j ||L e_j|| / c^2, with c = 1 first, then c = min_j Re d_j / |d_j|
    over the rotated block's diagonal, raised by 8 eps for rounding (c = 1
    where some Re d_j <= 0).  As c >= cos alpha, neither settles a member
    the exact check refuses.
    """

    psd: float = 1e-9

    def __post_init__(self) -> None:
        if not 0 <= self.psd < np.inf:
            raise BadConfig("tolerance psd must be finite and nonnegative")

    @property
    def eq(self) -> float:
        """The tolerance of generic equality comparisons: ``psd``, floored at 1e-8."""
        return max(self.psd, 1e-8)

    def psd_floor_at(self, norm: np.ndarray | float) -> np.ndarray | float:
        """The PSD floor ``psd * (1 + norm)`` of members whose Frobenius norms are ``norm``."""
        return self.psd * (1.0 + norm)


DEFAULT_TOL = Tolerances()
RANK_CUT = 1e-10  # relative rank threshold of every elimination, range cut and pole test (``Tolerances``)


@dataclass(frozen=True)
class SectorEstimate:
    """Certified sector of the numerical range.

    alpha: the smallest half-angle with W(A) in {Re z > 0, |Im z| <= Re z
    tan(alpha)}, exact up to rounding and certified by the rotated real
    parts it implies, else pi/2 (a vacuous sec^2(alpha) bound);
    margin: lambda_min(Re A), the smallest real part in the numerical range.
    """

    alpha: float
    margin: float


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose, acting on the last two axes."""
    return np.conj(np.swapaxes(a, -1, -2))


def readonly(a: np.ndarray) -> np.ndarray:
    """``a`` as a complex array that cannot be written.

    A writable or borrowed array is copied, so the caller's array stays
    writable and no later edit of it reaches the copy.  A read-only complex
    array that owns its data, such as a fresh result its maker has frozen,
    is kept as it is.
    """
    if isinstance(a, np.ndarray) and a.dtype == complex and a.flags.owndata and not a.flags.writeable:
        return a
    out = np.array(a, dtype=complex)
    out.setflags(write=False)
    return out


def herm_part(a: np.ndarray) -> np.ndarray:
    """(A + A*)/2, with the real and imaginary parts halved apart.

    Complex division by 2 can turn a real part of -0.0 into +0.0; halving
    the parts, as a real view of the sum, gives the same bits but keeps
    every signed zero.
    """
    h = np.add(a, dagger(a), order="C")
    if h.dtype.kind != "c":
        return h / 2
    parts = h.view(h.real.dtype)
    parts *= 0.5
    return h


def fro_norm(a: np.ndarray) -> np.ndarray | float:
    """Frobenius norm over the last two axes.

    The plain sum of squares.  Entries up to 1e150 keep every square, and
    any sum of fewer than 1e8 of them, finite; past that, each member whose
    sum overflows although its entries are finite is summed again scaled
    by its largest entry, and every other member keeps the plain sum.
    """
    mag = np.abs(a)
    if np.fmax.reduce(mag, axis=None, initial=0.0) <= 1e150:
        out = np.sqrt(np.add.reduce(mag * mag, axis=(-1, -2)))
        return float(out) if out.ndim == 0 else out
    with np.errstate(over="ignore"):
        out = np.array(np.sqrt(np.add.reduce(mag * mag, axis=(-1, -2))))
        redo = np.isinf(out) & np.isfinite(mag).all(axis=(-1, -2))
        big = np.max(mag[redo], axis=(-1, -2), initial=0.0, keepdims=True)
        out[redo] = big[..., 0, 0] * np.sqrt(np.add.reduce((mag[redo] / big) ** 2, axis=(-1, -2)))
    return float(out) if out.ndim == 0 else out


def unit_vector(v: np.ndarray) -> np.ndarray:
    """v / ||v|| as a flat complex vector; DomainViolation unless v is finite and nonzero."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    norm = np.linalg.norm(v) if np.isfinite(v).all() else 0.0
    if not 0.0 < norm < np.inf:
        raise DomainViolation("base vector must be finite and nonzero")
    return v / norm


def check_args(mats, arity: int, name: str, one: bool = False) -> tuple[np.ndarray, ...]:
    """The components of a tuple of matrices, refused unless ``name`` can take them.

    There must be ``arity`` components (ArityMismatch), square of one size
    of at least 1x1 (DimensionMismatch), with finite entries
    (DomainViolation).  Leading stack axes broadcast, so an empty stack
    ``(0, n, n)`` passes, unless ``one``: an entry point that takes no
    stack (``sector_estimate``, ``RawPencil`` and the one-tuple entry
    points) passes it, and any stack is refused (DimensionMismatch).  A single
    matrix or state is checked as a tuple of one, a coefficient list as
    the tuple of its coefficients.  The check only refuses: each component
    comes back as ``np.asarray`` gives it, and its caller keeps its own
    dtype policy.
    """
    xs = tuple(np.asarray(m) for m in mats)
    if len(xs) != arity:
        raise ArityMismatch(f"{name} takes {arity} arguments, got {len(xs)}")
    if any(x.ndim < 2 or x.shape[-1] != x.shape[-2] for x in xs):
        raise DimensionMismatch(f"{name} takes square matrices, got shapes {[x.shape for x in xs]}")
    if len({x.shape[-1] for x in xs}) > 1:
        raise DimensionMismatch(f"{name} takes matrices of one size, got shapes {[x.shape for x in xs]}")
    if xs[0].shape[-1] == 0:
        raise DimensionMismatch(f"{name} takes matrices of size at least 1x1")
    if one and any(x.ndim > 2 for x in xs):
        raise DimensionMismatch(f"{name} takes one tuple, got a stack of shape {max(x.shape[:-2] for x in xs)}")
    if not all(np.isfinite(x).all() for x in xs):
        raise DomainViolation(f"{name} argument has a non-finite entry")
    return xs


def check_interval(interval: tuple[float, float]) -> None:
    """Refuse a spectral interval unless it is (c1, c2) with 0 < c1 < c2 < inf (BadConfig); a NaN end fails it.

    The check only refuses, so a stored interval keeps the values, and the
    bytes, its caller gave.  ``cli``'s ``--interval``, ``support_pencil``
    and ``rep_from_quadrature`` take it; the testers keep ``sampling``'s
    rule, under which an interval at or below 0 serves the functions
    defined there.
    """
    if len(interval) != 2 or not 0 < interval[0] < interval[1] < np.inf:
        raise BadConfig(f"interval {tuple(interval)} must be (c1, c2) with 0 < c1 < c2 < inf")


def is_count(value, least: int) -> bool:
    """True for a Python or numpy integer of at least ``least`` that is not a bool: the rule of every count and index.

    A float, even 3.0, is no count, and neither is True, which numpy reads
    as a mask where 1 would be an index.  Each caller refuses what fails it
    (BadConfig, or DataError for a file's index).
    """
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= least


def _require_square(a: np.ndarray) -> None:
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimensionMismatch(f"expected square matrix, got shape {a.shape}")


def herm_certify(m: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Certify that ``m`` is Hermitian within tolerance and symmetrize it.

    Returns (M + M*)/2.  ``m`` takes ``check_args``; raises NotHermitian
    when the defect of a member exceeds its ``psd_floor``.
    """
    (m,) = check_args((np.asarray(m, dtype=complex),), 1, "herm_certify")
    defect = np.max(np.abs(m - dagger(m)), axis=(-2, -1)).ravel()
    bound = np.ravel(psd_floor(m, tol))
    bad = np.flatnonzero(defect > bound)
    if bad.size:
        raise NotHermitian(f"Hermitian defect {defect[bad[0]]:.3e} exceeds {bound[bad[0]]:.3e}")
    return herm_part(m)


def components(pattern: np.ndarray) -> np.ndarray:
    """Per index of a stack (..., d, d) of boolean patterns: the least index of its connected component.

    Indices run through the stack, member m's index i being m d + i, and i
    and j of one member are joined by a True entry at (i, j) or (j, i).  A
    stack without a False entry is one component per member, labelled
    without propagation.  Otherwise every pass hooks the larger root of each
    True entry's two indices under the smaller (``np.minimum.at``), and
    pointer jumping then points every index at its root again: a pass costs
    about the number of True entries, and a chain of d indices takes about
    log d jumps, not d passes.
    """
    pattern = np.asarray(pattern, dtype=bool)
    d = pattern.shape[-1]
    root = np.arange(pattern.size // d)
    if pattern.all():
        return (root - root % d).reshape(pattern.shape[:-1])
    i, j = np.divmod(np.flatnonzero(pattern), d)  # i counts the rows of every member before its own
    j += i - i % d
    while (hook := (ri := root[i]) != (rj := root[j])).any():
        np.minimum.at(root, ri[hook], rj[hook])
        np.minimum.at(root, rj[hook], ri[hook])
        while not np.array_equal(jumped := root[root], root):
            root = jumped
    return root.reshape(pattern.shape[:-1])


def block_index(labels: np.ndarray) -> list[np.ndarray]:
    """The blocks of a flat labelling by least index (``components``), grouped by size.

    One (g, s) array per block size s, ascending: each row lists one block's
    indices in ascending order, and the rows are ordered by least index.
    """
    if not labels.any():
        return [np.arange(labels.size)[None]]
    order, size = np.argsort(labels, kind="stable"), np.bincount(labels)  # each block's size at its least index
    root = np.flatnonzero(size)
    start, size = (np.cumsum(size) - size)[root], size[root]
    return [order[start[size == s, None] + np.arange(s)] for s in sorted(set(size.tolist()))]


def exact_blocks(mats) -> list[np.ndarray] | None:
    """The blocks (``block_index``) of the union of the exact nonzero patterns of ``mats``.

    None where one of them has no zero entry, so that they form one block,
    found without a pattern.
    """
    if any(m.all() for m in mats):
        return None
    return block_index(components(np.logical_or.reduce([m != 0 for m in mats])))


def min_eig(a: np.ndarray, blocks: list[np.ndarray] | None = None) -> np.ndarray | float:
    """Smallest eigenvalue of the Hermitian part, batched; -inf where an entry is not finite.

    ``blocks`` (``block_index``), when given, must hold every nonzero entry
    of ``a``, whose eigenvalues are then those of its blocks: each block
    size takes one ``eigvalsh`` of its blocks' stack, and a matrix that
    forms a single block takes it on itself.
    """
    if blocks is not None and (len(blocks) > 1 or len(blocks[0]) > 1):
        out = np.minimum.reduce([min_eig(a[..., b[:, :, None], b[:, None, :]]).min(axis=-1) for b in blocks])
        return float(out) if np.ndim(out) == 0 else out
    a = np.asarray(a, dtype=complex)
    finite = np.isfinite(a).all(axis=(-2, -1))
    if not finite.all():
        a = np.where(finite[..., None, None], a, np.eye(a.shape[-1]))
    out = np.where(finite, np.linalg.eigvalsh(herm_part(a))[..., 0], -np.inf)
    return float(out) if out.ndim == 0 else out


def cholesky_shift(a: np.ndarray, floor: np.ndarray | float) -> np.ndarray | float:
    """The shift ``floor + 32 n^2 eps (||a||_F + |floor|)`` whose Cholesky proves each member above ``floor``.

    A Cholesky of Herm(a) minus this shift times I that runs to completion
    puts lambda_min(Herm a), and ``eigvalsh``'s value of it, above
    ``floor`` (``Tolerances``).
    """
    n = np.shape(a)[-1]
    return floor + 32 * n * n * np.finfo(float).eps * (fro_norm(a) + np.abs(floor))


def cholesky_proves(a: np.ndarray, floor: np.ndarray | float) -> np.ndarray:
    """Per member of a finite stack: True where a Cholesky at ``cholesky_shift`` proves it above ``floor``.

    An outer-product Cholesky of Herm(a) - shift I over the n columns,
    vectorized over the members, so each member has its own outcome.  It
    reads the diagonal and the Hermitian part of each column below it, so
    ``a`` need not be Hermitian, and overwrites ``a``: pass a copy.
    """
    n = a.shape[-1]
    diag = np.arange(n)
    a[..., diag, diag] -= np.asarray(cholesky_shift(a, floor))[..., None]
    proved = np.ones(a.shape[:-2], dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(n):
            pivot = a[..., j, j].real
            proved &= (pivot > 0) & (pivot < np.inf)  # a NaN pivot fails both
            root = np.sqrt(np.where(proved, pivot, 1.0))[..., None]
            col = (a[..., j + 1 :, j] + np.conj(a[..., j, j + 1 :])) / (2 * root)
            a[..., j + 1 :, j + 1 :] -= col[..., :, None] * np.conj(col[..., None, :])
    return proved


def loewner_margin(a: np.ndarray, b: np.ndarray) -> np.ndarray | float:
    """lambda_min(B - A): nonnegative iff A <= B in the Loewner order."""
    return min_eig(np.asarray(b, dtype=complex) - np.asarray(a, dtype=complex))


def psd_floor(a: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> np.ndarray | float:
    """The PSD floor ``psd * (1 + ||a||_F)`` of each member of a stack (``Tolerances``)."""
    return tol.psd_floor_at(fro_norm(a))


def require_psd(
    a: np.ndarray, error: type[OpmonoError], what: str, tol: Tolerances = DEFAULT_TOL, blocks: list | None = None
) -> np.ndarray | float:
    """lambda_min(Herm a) per member; raises ``error`` when one lies below minus its ``psd_floor``.

    Given ``blocks``, lambda_min is taken block by block (``min_eig``), and
    the floor is still that of the whole matrix.
    """
    lam = min_eig(a, blocks)
    if np.any(lam < -psd_floor(a, tol)):
        raise error(f"{what} has minimum eigenvalue {np.min(lam):.3e}")
    return lam


def loewner_leq(a: np.ndarray, b: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> bool:
    """A <= B in the Loewner order for every member of a stack, within the PSD floor.

    A and B must be square of one shape and at least 1x1 (DimensionMismatch).
    A member whose difference has a non-finite entry is in no order, so the
    answer is then False.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape or a.ndim < 2 or not a.shape[-1] == a.shape[-2] > 0:
        raise DimensionMismatch(f"loewner_leq takes square matrices of one shape, got {a.shape} and {b.shape}")
    with np.errstate(invalid="ignore", over="ignore"):
        diff = b - a
    return bool(np.isfinite(diff).all() and np.all(min_eig(diff) >= -psd_floor(diff, tol)))


def funcalc(f: Callable[[np.ndarray], np.ndarray], a: np.ndarray) -> np.ndarray:
    """Hermitian functional calculus ``U f(Lambda) U*``.

    ``a`` takes ``check_args``, and ``f`` must be finite on the spectrum of
    each member (SpectrumOutOfDomain otherwise).
    """
    (a,) = check_args((a,), 1, "funcalc")
    a = herm_part(np.asarray(a, dtype=complex))
    w, u = np.linalg.eigh(a)
    with np.errstate(invalid="ignore", divide="ignore"):
        fw = np.asarray(f(w))
    if not np.all(np.isfinite(fw)):
        raise SpectrumOutOfDomain("function not finite on the spectrum")
    return (u * fw[..., None, :]) @ dagger(u)


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product; block (i, j) equals A[i, j] * B."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def block_diag(*blocks: np.ndarray) -> np.ndarray:
    """Block-diagonal matrix of square blocks, broadcast over leading axes."""
    blocks = [np.asarray(b) for b in blocks]
    for b in blocks:
        _require_square(b)
    lead = np.broadcast_shapes(*(b.shape[:-2] for b in blocks))
    total = sum(b.shape[-1] for b in blocks)
    out = np.zeros(lead + (total, total), dtype=complex)
    off = 0
    for b in blocks:
        d = b.shape[-1]
        out[..., off : off + d, off : off + d] = b
        off += d
    return out


def re_part(a: np.ndarray) -> np.ndarray:
    """(A + A*)/2, Hermitian by construction."""
    a = np.asarray(a, dtype=complex)
    _require_square(a)
    return herm_part(a)


def im_part(a: np.ndarray) -> np.ndarray:
    """(A - A*)/(2i), Hermitian by construction."""
    a = np.asarray(a, dtype=complex)
    _require_square(a)
    return (a - dagger(a)) / 2j


def sector_certified_alpha(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Certified sector angles and real-part margins of a stack (..., n, n).

    For A = H + iK with H = Re A > 0 the numerical range lies in the sector
    of half-angle alpha exactly when |<Kx, x>| <= tan(alpha) <Hx, x>, so the
    smallest such angle is arctan rho(H^{-1/2} K H^{-1/2}): one ``eigh`` of
    H and one ``eigvalsh`` of the congruence.  The sector is the
    intersection of the rotated half-planes {Re(e^{+-i(pi/2 - alpha)} z)
    >= 0}, so alpha is certified when lambda_min of both rotated real parts
    is at least -32 n^2 eps ||A||_F, their rounding allowance (as in
    ``cholesky_shift``), which scales with A.  Returns (alphas, margins) with
    margin = lambda_min(H); a member with margin <= 0 or an uncertified
    angle gets alpha = pi/2, and one with a non-finite entry margin -inf
    (the identity is factored in its place).
    """
    mats = np.asarray(mats, dtype=complex)
    finite = np.isfinite(mats).all(axis=(-2, -1))
    a = np.where(finite[..., None, None], mats, np.eye(mats.shape[-1]))
    w, u = np.linalg.eigh(herm_part(a))
    margins = np.where(finite, w[..., 0], -np.inf)
    v = u / np.sqrt(np.where(w > 0, w, 1.0))[..., None, :]
    with np.errstate(over="ignore", invalid="ignore"):
        congruence = dagger(v) @ im_part(a) @ v
    congruence[~np.isfinite(congruence)] = 0.0  # overflow at a vanishing margin
    alphas = np.arctan(np.abs(np.linalg.eigvalsh(congruence)).max(axis=-1))
    phases = np.exp(1j * np.multiply.outer([1.0, -1.0], np.pi / 2 - alphas))
    edges = np.linalg.eigvalsh(herm_part(phases[..., None, None] * a))[..., 0].min(axis=0)
    certified = (margins > 0) & (edges >= -32 * a.shape[-1] ** 2 * np.finfo(float).eps * fro_norm(a))
    return np.where(certified, alphas, np.pi / 2), margins


def sector_estimate(a: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> SectorEstimate:
    """Certified sector of the numerical range of one matrix.

    ``a`` takes ``check_args`` as one matrix, not a stack.
    ``alpha`` and ``margin`` = lambda_min(Re A) are those of
    ``sector_certified_alpha``.  Raises NotSectorial when the margin is not
    positive (within the relative PSD tolerance): W(A) then meets the
    closed left half-plane.
    """
    (a,) = check_args((a,), 1, "sector_estimate", one=True)
    alphas, margins = sector_certified_alpha(a[None])
    margin = float(margins[0])
    if not margin > psd_floor(a, tol):
        raise NotSectorial(
            f"numerical range has real part down to {margin:.3e}; "
            "it meets the closed left half-plane"
        )
    return SectorEstimate(alpha=float(alphas[0]), margin=margin)


def truncated_pinv(a: np.ndarray) -> np.ndarray:
    """SVD pseudoinverse with singular values <= RANK_CUT * sigma_max dropped, batched."""
    a = np.asarray(a, dtype=complex)
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    cut = RANK_CUT * s[..., :1]
    inv = np.where(s > cut, 1.0 / np.where(s > cut, s, 1.0), 0.0)
    return dagger(vh) @ (inv[..., :, None] * dagger(u))
