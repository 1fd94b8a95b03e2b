"""Shorted operators and Schur complements.

Two pivot conventions coexist in the literature and both are served here:
the shorted operator of a PSD matrix keeps the pivot block (maximality
semantics), while half-plane and sector results usually keep the block
complementary to the eliminated one.  ``schur_generic`` takes an explicit
``keep`` selector so each call site states its convention.

Every complement is eliminated by ``_eliminate`` under the one policy in
``Tolerances``, at the rank cut ``matcore.RANK_CUT``.  A singular
eliminated block is accepted exactly when the complement is the same for
every generalized inverse (``_complement``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BadConfig,
    DimensionMismatch,
    DomainViolation,
    EliminatedBlockDefective,
    HalfPlaneViolated,
    NotPSD,
    NotSectorial,
    RotationNotFound,
    SectorBoundViolated,
)
from .matcore import (
    DEFAULT_TOL,
    RANK_CUT,
    Tolerances,
    block_index,
    check_args,
    components,
    dagger,
    eig_rounding,
    fro_norm,
    herm_part,
    im_part,
    is_count,
    min_eig,
    psd_floor,
    re_part,
    readonly,
    require_psd,
    sector_certified_alpha,
    sector_estimate,
    truncated_pinv,
    unit_vector,
)
from .pencil import RawPencil, kron_sum, pencil_arguments, range_cut

__all__ = [
    "PivotSubspace",
    "ShortedResult",
    "shorted_psd",
    "schur_generic",
    "sector_bound_check",
    "SectorBoundReport",
    "SchurCore",
    "schur_pencil",
]


@dataclass(frozen=True)
class PivotSubspace:
    """Orthonormal basis of a distinguished subspace S.

    The basis, a d x m matrix with orthonormal columns, is all that is
    stored: the ambient dimension d is its row count, which each reader
    takes from it.  It is kept read-only (``matcore.readonly``).  The
    constructor ``PivotSubspace(basis)`` is the one way in: it refuses a
    basis that is not a finite matrix with orthonormal columns.
    ``from_indices`` and ``from_vector`` build the basis of a coordinate
    span and of a line and hand it to it.
    """

    basis: np.ndarray

    def __post_init__(self) -> None:
        basis = readonly(self.basis)
        if basis.ndim != 2:
            raise DimensionMismatch(f"basis must be a matrix, got shape {basis.shape}")
        if not np.isfinite(basis).all():
            raise DomainViolation("basis has a non-finite entry")
        gram = dagger(basis) @ basis
        if fro_norm(gram - np.eye(basis.shape[1])) > DEFAULT_TOL.eq * basis.shape[1]:
            raise DimensionMismatch("basis columns are not orthonormal")
        object.__setattr__(self, "basis", basis)

    @classmethod
    def from_indices(cls, ambient_dim: int, indices: list[int]) -> "PivotSubspace":
        """span(e_i) for the distinct ``indices`` i in 0..ambient_dim - 1, else BadConfig.

        The dimension and every index must pass ``matcore.is_count`` (at 1
        and 0): a float or a bool, which numpy would read as a mask, is refused.
        """
        if not (is_count(ambient_dim, 1) and all(is_count(idx, 0) and idx < ambient_dim for idx in indices)):
            raise BadConfig(f"pivot indices {list(indices)} must be integers in 0..d - 1, got d = {ambient_dim!r}")
        if len(set(indices)) != len(indices):
            raise BadConfig(f"pivot indices {list(indices)} repeat an index")
        basis = np.zeros((ambient_dim, len(indices)), dtype=complex)
        for col, idx in enumerate(indices):
            basis[idx, col] = 1.0
        return cls(basis)

    @classmethod
    def from_vector(cls, v: np.ndarray) -> "PivotSubspace":
        """The line spanned by ``v`` (``matcore.unit_vector``: DomainViolation unless v is finite and nonzero)."""
        return cls(unit_vector(v)[:, None])

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def perp_basis(self) -> np.ndarray:
        """Orthonormal basis of the orthogonal complement."""
        return _perp(self.basis)

    def embed(self, y: np.ndarray) -> np.ndarray:
        """Zero-pad an operator on S into the ambient space."""
        return self.basis @ np.asarray(y, dtype=complex) @ dagger(self.basis)


def _perp(q: np.ndarray) -> np.ndarray:
    """Orthonormal bases (..., d, d - m) of the complements of orthonormal columns q (..., d, m).

    The eigenvectors of I - q q* at eigenvalue 1, which ``eigh`` lists last.
    """
    w, u = np.linalg.eigh(herm_part(np.eye(q.shape[-2]) - q @ dagger(q)))
    return u[..., q.shape[-1]:]


@dataclass(frozen=True)
class ShortedResult:
    """Shorted operator on S and the range-inclusion residual of its elimination."""

    shorted: np.ndarray
    defect: float


def _blocks(a: np.ndarray, s: PivotSubspace) -> tuple[np.ndarray, ...]:
    q = s.basis
    qp = s.perp_basis()
    a = np.asarray(a, dtype=complex)
    if a.shape != (len(q), len(q)):
        raise DimensionMismatch(f"matrix shape {a.shape} vs ambient {len(q)}")
    return (
        dagger(q) @ a @ q,
        dagger(q) @ a @ qp,
        dagger(qp) @ a @ q,
        dagger(qp) @ a @ qp,
    )


def _complement(a: np.ndarray, s: PivotSubspace, keep: str) -> tuple[np.ndarray, np.ndarray, float]:
    """The kept block K, its Schur complement K - B D^- C and ||D sol - C||_F.

    ``keep="s"`` keeps the S block and eliminates D on its complement;
    ``keep="perp"`` keeps the complement and eliminates the S block.  One
    ``_eliminate`` call solves D sol = C and D* y = B* together, so both
    range inclusions ran C in ran D and ran B* in ran D* are checked: they
    hold exactly when K - B D^- C is the same for every generalized inverse
    D^- (EliminatedBlockDefective otherwise).  With nothing eliminated the
    complement is K itself.  Its callers have checked ``a`` by
    ``matcore.check_args``.
    """
    a11, a12, a21, a22 = _blocks(a, s)
    if keep == "s":
        k, b, c, d = a11, a12, a21, a22
    elif keep == "perp":
        k, b, c, d = a22, a21, a12, a11
    else:
        raise BadConfig("keep must be 's' or 'perp'")
    if d.size == 0:
        return k, k, 0.0
    sol = _eliminate(np.stack([d, dagger(d)]), np.stack([c, dagger(b)]))[0]
    return k, k - b @ sol, fro_norm(d @ sol - c)


def shorted_psd(
    a: np.ndarray, s: PivotSubspace, tol: Tolerances = DEFAULT_TOL
) -> ShortedResult:
    """Shorted operator of a PSD matrix on the subspace S.

    Returns ``A_11 - A_12 A_22^+ A_21``, the maximal self-adjoint operator
    on S sitting below A.  A singular A_22 needs no special case: for PSD
    input ran A_21 lies in ran A_22, which the elimination checks.  ``a``
    takes ``matcore.check_args``.
    """
    (a,) = check_args((a,), 1, "shorted_psd")
    a = herm_part(np.asarray(a, dtype=complex))
    require_psd(a, NotPSD, "input", tol)
    _, comp, residual = _complement(a, s, "s")
    return ShortedResult(shorted=herm_part(comp), defect=residual)


def schur_generic(a: np.ndarray, s: PivotSubspace, keep: str = "s") -> np.ndarray:
    """Schur complement of a general matrix: kept block minus cross terms.

    ``keep="s"`` keeps the S block and eliminates its complement;
    ``keep="perp"`` keeps the complement and eliminates the S block.  A
    singular eliminated block is accepted when the complement does not
    depend on the generalized inverse taken (see ``_complement``).  ``a``
    takes ``matcore.check_args``.
    """
    (a,) = check_args((a,), 1, "schur_generic")
    return _complement(a, s, keep)[1]


@dataclass(frozen=True)
class SectorBoundReport:
    """Certified sector angle and the per-index singular value comparison."""

    alpha: float
    singular_value_pairs: tuple[tuple[float, float], ...]
    norm_pair: tuple[float, float]
    passed: bool


def sector_bound_check(
    a: np.ndarray,
    s: PivotSubspace,
    tol: Tolerances = DEFAULT_TOL,
) -> SectorBoundReport:
    """Check the sec^2(alpha) singular-value bound for sectorial matrices.

    Certifies W(A) within a sector of half-angle alpha by ``sector_estimate``
    (NotSectorial otherwise; its check refuses a malformed ``a``),
    eliminates the S block (keeping its complement, whose raw block is
    A_22), and compares sigma_j of the complement against sec^2(alpha) *
    sigma_j(A_22), plus the norm form ||S(A)|| <= sec^2(alpha) ||A||.
    """
    a = np.asarray(a, dtype=complex)
    alpha = sector_estimate(a, tol).alpha
    a22, comp, _ = _complement(a, s, "perp")
    sec2 = 1.0 / np.cos(alpha) ** 2
    sv_s = np.linalg.svd(comp, compute_uv=False)
    sv_a22 = np.linalg.svd(a22, compute_uv=False)
    pairs = tuple((float(x), float(sec2 * y)) for x, y in zip(sv_s, sv_a22))
    norm_a = np.linalg.svd(a, compute_uv=False)[0]
    norm_pair = (float(np.max(sv_s, initial=0.0)), float(sec2 * norm_a))
    ok = all(x <= y * (1.0 + tol.eq) for x, y in pairs)
    ok = ok and norm_pair[0] <= norm_pair[1] * (1.0 + tol.eq)
    return SectorBoundReport(
        alpha=alpha, singular_value_pairs=pairs, norm_pair=norm_pair, passed=ok
    )


def _in_halfspace(part, x: tuple[np.ndarray, ...], floors: list) -> np.ndarray:
    """Per member of the stacked tuple: ``part`` of each component is above that component's floor."""
    return np.logical_and.reduce([min_eig(part(m)) > f for m, f in zip(x, floors)])


def _eliminate(d: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve the stacked systems D sol = rhs, cut at ``RANK_CUT``, and check their residual."""
    try:
        inv = np.linalg.inv(d)
        full = RANK_CUT * fro_norm(d) * fro_norm(inv) < 1.0  # no singular value to truncate
    except np.linalg.LinAlgError:
        inv, full = np.zeros_like(d), np.zeros(d.shape[:-2], dtype=bool)
    if not full.all():
        inv[~full] = truncated_pinv(d[~full])
    sol = inv @ rhs
    for _ in range(2):
        sol = sol + inv @ (rhs - d @ sol)
    residual = fro_norm(d @ sol - rhs)
    bound = RANK_CUT * (1.0 + fro_norm(rhs))
    if not np.all(residual <= bound):
        worst = np.unravel_index(np.argmax(residual / bound), residual.shape)
        raise EliminatedBlockDefective(
            f"eliminated block fails range inclusion: residual "
            f"{residual[worst]:.3e} > {bound[worst]:.3e}"
        )
    return sol


def _aim(z: np.ndarray) -> np.ndarray:
    """The angle -beta/2 per member of a stack (m, k, n, n) of upper half-space slots Z_i.

    With Im Z_i = L L* (``cholesky``) and mu = min_i lambda_min(L^-1 Re Z_i
    L^-*), every point of every W(Z_i) has an argument in [0, beta],
    cot beta = mu: x* Re Z_i x >= mu x* Im Z_i x.  The shifted evaluation
    (B_0 - sum B_i) (x) I + sum B_i (x) Z_i has PSD coefficients, so the
    numerical range of each essential block, normalized or not, lies in the
    cone spanned by 1 and the W(Z_i), which rotating by -beta/2 centres on
    the positive real axis.  All NaN, so no angle, when some Im Z_i has no
    Cholesky factor, which passing ``SchurCore.evaluate``'s upper
    half-space floor (``_in_halfspace``) leaves possible only at rounding
    level.
    """
    try:
        low = np.linalg.cholesky(im_part(z))
    except np.linalg.LinAlgError:
        return np.full(len(z), np.nan)
    linv = np.linalg.inv(low)
    return -0.5 * np.arctan2(1.0, np.min(min_eig(linv @ re_part(z) @ dagger(linv)), axis=-1))


def _cone_margin(args: np.ndarray, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per member of the shifted stack ``args`` (..., K, n, n): the norms ||Y_j||_F and the margin m.

    m = min(cos theta, min_i lambda_min Re(e^{i theta} X_i)), X_i = Y_i + I,
    from one batched ``eigvalsh``, less ``eig_rounding(n, max_i (||Y_i||_F
    + sqrt n))``, more than the rounding of cos theta, of e^{i theta} X_i
    and of ``eigvalsh`` (``SchurCore.evaluate``).  NaN for a NaN aim.
    """
    n = args.shape[-1]
    norms = fro_norm(args)  # ||I||_F = sqrt(n) first
    lam = min_eig(np.exp(1j * theta)[..., None, None, None] * (args[..., 1:, :, :] + np.eye(n)))
    slack = eig_rounding(n, (norms[..., 1:] + norms[..., :1]).max(axis=-1))
    return norms, np.minimum(np.cos(theta), lam.min(axis=-1)) - slack


def _cone_constants(essential: np.ndarray) -> tuple[np.ndarray, ...]:
    """The constants of the cone bound (``SchurCore.evaluate``) for essential coefficients A_j (g, K, r, r).

    Per member: lambda_min(H_0); the weight ||Z_j||_F + p_j of each
    ||Y_j||_F in the allowance (p_0 = 0); d + sum_i p_i; and the norms
    ||A_j||_F.  The eigenvalues come from one ``eigvalsh`` and are moved
    towards the safe side by ``eig_rounding(r + K, sum_j ||A_j||_F)``, more
    than their rounding and that of the Hermitian parts and of D.
    """
    g, terms, rank = essential.shape[:2] + essential.shape[-1:]
    herm = herm_part(essential)
    sizes = fro_norm(essential)
    err = eig_rounding(rank + terms, sizes.sum(axis=-1, keepdims=True))
    lam = min_eig(np.concatenate([herm, herm[:, :1] - herm[:, 1:].sum(axis=1, keepdims=True)], axis=1))
    deficit = np.maximum(err - lam, 0.0)  # of Herm A_i at 1..K-1, of the dominance at K
    dev = fro_norm(essential - herm) + np.concatenate([np.zeros((g, 1)), deficit[:, 1:terms]], axis=1)
    return lam[:, 0] - err[:, 0], dev, deficit[:, 1:].sum(axis=-1), sizes


def _where(a: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """The members of ``a`` where ``mask`` holds, or ``a`` itself, uncopied, where it holds for all."""
    return a if mask.all() else a[mask]


def _pick(a: np.ndarray, mask: np.ndarray, tail: int = 0) -> np.ndarray:
    """``_where`` of ``a`` broadcast against the stack ``mask.shape``, with its last ``tail`` axes."""
    return _where(np.broadcast_to(a, mask.shape + a.shape[a.ndim - tail:]), mask)


def _sector_settles(comp: np.ndarray, block: np.ndarray, diag: np.ndarray) -> np.ndarray:
    """Per member: ||S||_F <= max_j ||L e_j|| / c^2, which implies the sec^2(alpha) bound on S and L.

    ``diag`` is the diagonal of e^{i theta} D L D, theta the certified
    rotation and D a positive diagonal congruence (or I); each entry d_j is
    a positive multiple of a point of W(e^{i theta} L), so c = min_j Re d_j
    / |d_j| >= cos alpha.  Tier 1 takes c = 1, for any alpha: ||S||_2 <=
    ||S||_F and max_j ||L e_j|| <= ||L||_2.  Tier 2 reads ``diag`` only for
    the members tier 1 leaves open, and leaves open those with a NaN entry
    or one at Re d_j <= 0.  Its c takes 8 eps more, above the rounding of
    d, of c and of the quotient by c^2, so that each moves the bound down.
    """
    lhs, cols = fro_norm(comp), np.linalg.norm(block, axis=-2).max(axis=-1)
    settled = lhs <= cols
    if not settled.all():
        rest = ~settled
        d = diag[rest]
        with np.errstate(divide="ignore", invalid="ignore"):  # a NaN or nonpositive c settles nothing
            c = (d.real / np.abs(d)).min(axis=-1) + 8 * np.finfo(float).eps
            settled[rest] = (d.real > 0).all(axis=-1) & (lhs[rest] <= cols[rest] / (c * c))
    return settled


def _check_sector_bound(
    rotated: np.ndarray, block: np.ndarray, comp: np.ndarray, tol: Tolerances
) -> None:
    """||S_c|| <= sec^2(alpha_c) ||L_c|| for essential blocks L_c (d x d) and complements S_c.

    ``rotated`` holds the certified blocks e^{i theta} T* L_c T of
    ``SchurCore.evaluate``.  A congruence keeps the argument of every x* L x,
    so alpha_c, the sector angle of ``sector_certified_alpha``, is read from
    them; the norms are those of ``block``, the L_c.  ``SchurCore.evaluate``
    passes only the members its first check, ``_sector_settles`` on full_c
    where the essential basis spans the component, leaves open.  Four tiers,
    each settling a member only where the exact check passes:

    1. ||S_c||_F <= max_j ||L_c e_j||: the bound holds for any alpha, as
       ||S||_2 <= ||S||_F <= max_j ||L e_j|| <= ||L||_2.
    2. ||S_c||_F <= max_j ||L_c e_j|| / c^2, c = min_j Re d_j / |d_j| over
       the diagonal d of ``rotated``: each d_j lies in its numerical range,
       so c >= cos alpha_c (``_sector_settles``, which takes tiers 1 and 2).
    3. The others take their spectral norms, one ``svd`` of the S_c and one
       of the L_c.  ||S_c||_2 <= ||L_c||_2 (1 + eq) settles a member for any
       alpha: cos^2 alpha <= 1, so ||L_c||_2 / cos^2 alpha >= ||L_c||_2 also
       in IEEE arithmetic.
    4. Only the members left open (NaN norms included) take their exact
       angle, and compare the same spectral norms.
    """
    unsettled = ~_sector_settles(comp, block, np.diagonal(rotated, axis1=-2, axis2=-1))
    if unsettled.any():
        lhs = np.linalg.svd(comp[unsettled], compute_uv=False)[..., 0]
        norms = np.linalg.svd(block[unsettled], compute_uv=False)[..., 0]
        undecided = ~(lhs <= norms * (1.0 + tol.eq))
        if undecided.any():
            alphas, _ = sector_certified_alpha(rotated[unsettled][undecided])
            lhs, rhs = lhs[undecided], norms[undecided] / np.cos(alphas) ** 2
            if np.any(lhs > rhs * (1.0 + tol.eq)):
                worst = np.argmax(lhs / rhs)
                raise SectorBoundViolated(
                    f"||S(L(X))|| = {lhs[worst]:.6g} exceeds sec^2(alpha)||L(X)|| = {rhs[worst]:.6g}"
                )


def _pivot_blocks(coeffs: tuple[np.ndarray, ...], basis: np.ndarray) -> tuple[list, float]:
    """The exact blocks of coefficients against a pivot basis (d, m), and the coupling of those without a pivot.

    The blocks are the components (``matcore.components``) of the union of
    the coefficients' nonzero patterns, in which each pivot column's support
    is joined, so that every pivot column lies in one block; a coefficient
    without a zero entry makes the whole space one block, found without a
    pattern.  The blocks that hold a pivot column come per shape as (kept,
    rows (g, s), cols (g, kept)): each block's rows and its pivot columns,
    in ascending order.  The others drop out, but their coupling, max_ij
    sum_k |B_k[i, j]| over their rows, counts towards ``SchurCore``'s
    ``RANK_CUT`` cut, as their entries did when the whole space was adapted
    at once.
    """
    dim, m = basis.shape
    if any(x.all() for x in coeffs):
        return [(m, np.arange(dim)[None], np.arange(m)[None])] if m else [], 0.0
    pattern, support = np.logical_or.reduce([x != 0 for x in coeffs]), basis != 0
    anchor = support.argmax(axis=0)  # a row of each pivot column, joined to the column's other rows
    rows, cols = np.nonzero(support)
    pattern[anchor[cols], rows] = True
    labels = components(pattern)
    held, by_block = np.bincount(labels[anchor], minlength=dim), np.argsort(labels[anchor], kind="stable")
    shapes = []
    for block in block_index(labels):
        owned = held[block[:, 0]]
        for kept in set(owned[owned > 0].tolist()):
            b = block[owned == kept]
            shapes.append((kept, b, by_block[(np.cumsum(held) - held)[b[:, :1]] + np.arange(kept)]))
    return shapes, sum(np.abs(x[held[labels] == 0]) for x in coeffs).max(initial=0.0)


class SchurCore:
    """A pencil partitioned once against a pivot subspace S, for the Schur
    complements of its shifted evaluations that keep S (x) I.

    The partition works one exact block at a time.  The blocks are the
    connected components of the coefficients' exact nonzero pattern, joined
    by each pivot column's support (``_pivot_blocks``), so a direct sum of
    cells, such as a quadrature representation's, is partitioned cell by
    cell, and a pencil with a coefficient without zero entries, such as
    every support certificate, is one block.  Each block b that holds a
    pivot column takes the basis [Q_b, Q_b_perp] adapted to S within it and
    its coefficients u_b* C_b u_b, for all blocks of one shape at once.  Two
    directions of a block are coupled when a coefficient entry between them
    exceeds ``RANK_CUT`` times the largest over all blocks.  The complement
    is block diagonal over the connected components of the couplings
    (``matcore.components``), gathered across the blocks; those without a
    pivot direction drop out, the others are stacked by their numbers of
    pivot directions, of directions and of essential ones into ``groups`` of
    (kept, index, coeffs, essential, weights), ordered by their first pivot
    direction: each member's directions (g, c), ``kept`` pivot ones first,
    numbered by their columns of ``pivot.basis`` and the complement's after
    them, block by block, and its coefficients (g, K, c, c).  The essential
    directions are the eigenvectors E of the coefficient sum whose
    eigenvalues, the ``weights`` w (g, r), pass the ``RANK_CUT`` cut of
    ``pencil.range_cut``, from one stacked ``eigh`` per component shape;
    ``essential`` (g, K, r, r) holds the coefficients compressed to T = E
    W^{-1/2}, which sum to the identity: every essential direction has unit
    weight.  Both are None if nothing is eliminated.  The constants of a
    group's half-space checks, sqrt(w) and the 16 eps kappa of its floor,
    are computed here once, as are a state's weights (``state_weights``);
    those of the cone bound wait for the first half-space evaluation
    (``_cone_bound``).  None of them reads a tolerance: one core serves
    every ``Tolerances``, which each half-space evaluation names
    (``evaluate``).
    """

    def __init__(self, pencil: RawPencil, pivot: PivotSubspace):
        if len(pivot.basis) != pencil.size:
            raise DimensionMismatch("pivot subspace must live on the coefficient space")
        self.pencil, self.basis = pencil, pivot.basis
        shapes, top = _pivot_blocks(pencil.coeffs, pivot.basis)
        parts, perp = [], pivot.dim  # per block shape: the directions, numbered as in index, and the coefficients
        for kept, b, c in shapes:
            q = pivot.basis[b[:, :, None], c[:, None, :]]
            u = np.concatenate([q, _perp(q)], axis=-1)
            a = np.stack([x[b[:, :, None], b[:, None, :]] for x in pencil.coeffs], axis=1)  # (g, K, size, size)
            a = dagger(u)[:, None] @ a @ u[:, None]
            top = max(top, np.abs(a).sum(axis=1).max())
            at = perp + np.arange(b.size - c.size).reshape(len(b), -1)  # the complement's, block by block
            parts.append((kept, np.concatenate([c, at], axis=1), a))
            perp += b.size - c.size
        found = {}  # by (kept, size): the directions and coefficients of each component with a pivot direction
        for kept, at, a in parts:
            size = at.shape[1]
            reach = (np.abs(a).sum(axis=1) > RANK_CUT * top) | np.eye(size, dtype=bool)
            if reach.all():  # each block is one component
                found.setdefault((kept, size), []).append((at, a))
                continue
            for comp in block_index(components(reach).ravel()):
                comp = comp[comp[:, 0] % size < kept]  # pivot directions come first
                held = (comp % size < kept).sum(axis=1)
                for k in set(held.tolist()):
                    one = comp[held == k]
                    local = one % size
                    c = a[one[:, :1, None, None] // size, np.arange(a.shape[1])[:, None, None],
                          local[:, None, :, None], local[:, None, None, :]]
                    found.setdefault((k, one.shape[1]), []).append((at.ravel()[one], c))
        groups = []  # by (kept, size, rank), each with its members ordered by first pivot column
        for (kept, size), got in found.items():
            index, c = got[0] if len(got) == 1 else (np.concatenate(z) for z in zip(*got))
            w, e = np.ones((len(c), 0)), np.zeros((len(c), size, 0))  # nothing to eliminate
            if kept < size:  # one eigh per shape, cut per member as range_basis cuts
                w, e = np.linalg.eigh(herm_part(c.sum(axis=1)))
            rank = range_cut(w).sum(axis=-1)
            for r in set(rank.tolist()):
                sel = np.flatnonzero(rank == r)
                sel = sel[np.argsort(index[sel, 0])]
                groups.append((kept, index[sel], c[sel], w[sel, w.shape[1] - r:], e[sel, :, e.shape[2] - r:]))
        self.groups, self._sector = [], []
        for kept, index, c, w, e in sorted(groups, key=lambda group: group[1][0, 0]):
            t, rank = e / np.sqrt(w)[:, None, :], w.shape[1]
            essential = dagger(t)[:, None] @ c @ t[:, None] if rank else None
            self.groups.append((kept, index, c, essential, w if rank else None))
            self._sector.append((np.sqrt(w), 16 * np.finfo(float).eps * (w[:, -1] / w[:, 0])) if rank else None)
        self._kept_state = (None, None)  # the last read-only state and its weights
        self._cone = None  # the constants of _cone_bound, per group

    def _cone_bound(self, i: int, norms: np.ndarray, margin: np.ndarray, n: int,
                    tol: Tolerances) -> tuple[np.ndarray, np.ndarray]:
        """Per member of group ``i`` (..., g): the cone bound on lambda_min Re(e^{i theta} L~) and a floor above L~'s.

        ``norms`` and ``margin`` are ``_cone_margin``'s and the floor is
        ``tol``'s; the bound and its allowances are derived in ``evaluate``.
        The groups' constants are computed on the core's first call, so a core
        that never checks a half-space, such as one that only ``reconstruct``
        and ``rep_eval`` have used, pays nothing for them.
        """
        if self._cone is None:
            self._cone = [None if group[3] is None else _cone_constants(group[3]) for group in self.groups]
        lam0, dev, const, sizes = self._cone[i]
        terms, rank = sizes.shape[-1], self.groups[i][3].shape[-1]
        u = eig_rounding(rank * n + terms, 1.0)
        with np.errstate(over="ignore", invalid="ignore"):  # a bound or floor that is not finite settles nothing
            s = norms @ sizes.T  # >= ||L~||_F
            top = s * (1.0 + u)
            floor = tol.psd_floor_at(top) + self._sector[i][1] * top
            m = margin[..., None]
            return np.where(m > 0, m * lam0 - (norms @ dev.T + const + u * s), -np.inf), floor

    def state_weights(self, state: np.ndarray) -> list[np.ndarray]:
        """Per group, Q* T Q (T the state, Q ``pivot.basis``) at each member's kept pivot directions.

        These (g, kept, kept) entries are all the partial trace of
        ``evaluate`` reads of the state.  They are kept for the next call
        when ``state`` is read-only and owns its data, as a
        ``PencilRepresentation``'s state does; any other state is compressed
        afresh on every call, so an edit between calls is seen.
        """
        frozen = isinstance(state, np.ndarray) and not state.flags.writeable and state.flags.owndata
        if frozen and self._kept_state[0] is state:
            return self._kept_state[1]
        t = dagger(self.basis) @ state @ self.basis
        weights = [t[index[:, :kept, None], index[:, None, :kept]] for kept, index, *_ in self.groups]
        if frozen:
            self._kept_state = (state, weights)
        return weights

    def evaluate(
        self,
        x: tuple[np.ndarray, ...],
        state: np.ndarray | None = None,
        tol: Tolerances | None = None,
    ) -> np.ndarray:
        """Schur complement of the shifted evaluation at ``x``, keeping S (x) I.

        Returned whole in the coordinates of ``pivot.basis (x) I`` for one
        tuple, or with ``state`` as its partial trace against the state
        compressed to S, shape ``(..., n, n)`` for a tuple stacked on leading
        axes; a whole complement takes one tuple (DimensionMismatch for a
        stack).  The compressed state's weights come from ``state_weights``:
        once per core for a read-only state such as a representation's,
        afresh on every call for a writable one.  Without ``tol`` nothing is
        certified and no floor is read.  A ``Tolerances`` asks for the
        half-space certification at its floors: every member must lie in an
        operator half-space (else DomainViolation), and each eliminated
        component is certified sectorial on its normalized essential block
        L~ = T* L T, T = E W^{-1/2} (x) I, at theta = 0 for a right
        half-space member and at the ``_aim`` of an upper one:
        lambda_min(Re(e^{i theta} L~)) must exceed the floor of ``tol``, else
        NotSectorial for a right member and RotationNotFound for an upper one
        (a NaN aim included).
        For invertible T, Re(e^{i theta} T* L T) = T* Re(e^{i theta} L) T, so
        this certifies Re(e^{i theta} L) > 0 on the same essential directions,
        and the sector angle is the same.

        The cone bound settles the check without forming L~.  L~ = sum_j
        A_j (x) Y_j, Y = (I, X_1 - I, ...), and the essential coefficients
        A_j sum to I (A_0 >= I/2 for a validated pencil).  With H_j, Z_j the
        Hermitian and skew parts of A_j, D = H_0 - sum H_i, R_i = Re(e^{i
        theta} X_i), m = min(cos theta, min_i lambda_min R_i), and p_i, d the
        PSD deficits of H_i and D: Re(e^{i theta} L~) = cos theta D (x) I +
        sum_i H_i (x) R_i + Herm(e^{i theta} sum_j Z_j (x) Y_j), and for
        m >= 0, cos theta D >= m (D + d) - d, H_i (x) R_i >= m (H_i + p_i)
        (x) I - p_i ||R_i||_2, ||R_i||_2 <= ||Y_i||_F + 1, so
        lambda_min Re(e^{i theta} L~) >= m lambda_min(H_0) - d
        - sum_i p_i (||Y_i||_F + 1) - sum_j ||Z_j||_F ||Y_j||_F.
        ``_cone_bound`` subtracts u s more, s = sum_j ||A_j||_F ||Y_j||_F >=
        ||L~||_F, u = ``eig_rounding(r n + K, 1)``, for the rounding of
        forming, rotating and symmetrizing L~ and of the ``eigvalsh``
        deciding it; lambda_min(H_0), d and the p_i move by
        ``eig_rounding(r + K, sum_j ||A_j||_F)`` (``_cone_constants``), m by
        ``eig_rounding(n, max_i (||Y_i||_F + sqrt n))`` (``_cone_margin``),
        each to the safe side.
        A member is settled when the bound exceeds tol.psd_floor_at(s (1 +
        u)) + 16 eps kappa s (1 + u), at least its floor; m <= 0, so a NaN
        aim, settles nothing.  It costs one batched ``eigvalsh`` of the
        arguments in an evaluation that takes it, and one per group in the
        core's first.

        ``_check_sector_bound``'s first two tiers (``_sector_settles``) are
        taken here, before the cone bound, on full_c, the component block
        eliminated: where a group's essential basis E spans its component
        (rank equals component size), L_c = E* full_c E, E unitary, so
        ||S_c||_F <= max_j ||full_c e_j|| settles a member (tier 1), and so
        does ||S_c||_F <= max_j ||full_c e_j|| / c^2 (tier 2), c = min_j Re
        d_j / |d_j| over the diagonal d of e^{i theta} full_c, whose entries
        lie in W(e^{i theta} L_c), so that c >= cos alpha_c.  The cone bound
        is taken only for a group in which this check settles some member;
        elsewhere every member forms L~ anyway, and its floor check costs no
        more than the bound.

        Only the members these two checks leave open form L~ and its
        rotation; those the cone bound leaves open take the floor check, and
        all of them take ``_check_sector_bound``, as every member did before,
        so every outcome and message is unchanged.  Last, every upper
        member's output must keep a PSD imaginary part (else
        HalfPlaneViolated), a check that an evaluation without an upper
        member does not take.  Neither the angle nor the scaling enters the
        complement, so the result equals that without ``tol``.
        """
        args = pencil_arguments(self.pencil, x, shifted=True, one=state is None)
        lead, n = args.shape[:-3], args.shape[-1]
        if tol is not None:
            floors = [psd_floor(m, tol) for m in x]  # each slot's, for both half-spaces
            right = np.broadcast_to(_in_halfspace(re_part, x, floors), lead)
            if not (right.all() or np.all(right | _in_halfspace(im_part, x, floors))):
                raise DomainViolation("tuple lies in neither operator half-space")
            theta = np.zeros(lead)
            if not right.all():
                theta[~right] = _aim(args[~right][:, 1:] + np.eye(n))  # from the X_i of upper members
            shifted, cone = args, None  # _cone_margin's, taken when a group first needs it
        args = args[..., None, :, :, :]  # against the members of each group
        m = self.basis.shape[1]
        out = np.zeros((m, n, m, n) if state is None else lead + (n, n), dtype=complex)
        weights = None if state is None else self.state_weights(state)
        checks = []
        for i, (kept, index, coeffs, essential, _) in enumerate(self.groups):
            full = kron_sum(coeffs, args)
            k = kept * n
            comp = full[..., :k, :k]
            if essential is not None:
                comp = comp - full[..., :k, k:] @ _eliminate(full[..., k:, k:], full[..., k:, :k])
                if tol is not None:  # full_c settles a member's first sector check, the cone bound its floor check
                    pick = True
                    if essential.shape[-1] == coeffs.shape[-1]:  # the diagonal of e^{i theta} full_c
                        diag = np.exp(1j * theta)[..., None, None] * np.diagonal(full, axis1=-2, axis2=-1)
                        pick = ~_sector_settles(comp, full, diag)
                    low = np.broadcast_to(pick, comp.shape[:-2])
                    if not low.all():  # where every member forms its block, its floor check costs no more
                        cone = _cone_margin(shifted, theta) if cone is None else cone
                        bound, floor = self._cone_bound(i, *cone, n, tol)
                        low = ~(bound > floor)
                    pick = low | pick
                    if pick.any():  # only these form their blocks
                        checks.append((i, pick, low, kron_sum(_pick(essential, pick, 3), _pick(args, pick, 3)),
                                       _where(comp, pick)))
            comp = comp.reshape(comp.shape[:-2] + (kept, n, kept, n))
            if state is None:
                out[index[:, :kept, None], :, index[:, None, :kept], :] = comp.transpose(0, 1, 3, 2, 4)
            else:
                out += np.einsum("gsr,...grisj->...ij", weights[i], comp)
        out = out.reshape(m * n, m * n) if state is None else out
        if tol is not None:
            for i, pick, low, normalized, comp in checks:
                root, slack = self._sector[i]
                rotated = np.exp(1j * _pick(theta[..., None], pick))[..., None, None] * normalized
                if low.any():
                    inner = _where(low, pick)
                    size = fro_norm(_where(normalized, inner))
                    floor = tol.psd_floor_at(size) + _pick(slack, low) * size
                    failed = ~(min_eig(_where(rotated, inner)) > floor)  # NaN aims fail
                    if np.any(failed & _pick(right[..., None], low)):
                        raise NotSectorial("an eliminated component of a right member is not sectorial")
                    if failed.any():
                        raise RotationNotFound("the aimed rotation leaves an eliminated component unsectorial")
                root = _pick(np.repeat(root, n, axis=-1), pick, 1)
                _check_sector_bound(rotated, root[..., :, None] * normalized * root[..., None, :], comp, tol)
            if not right.all():
                upper = out[~right]  # right is 0-d for a whole complement, so this adds an axis
                lam = min_eig(im_part(upper))
                if np.any(lam < -psd_floor(upper, tol)):
                    raise HalfPlaneViolated(f"imaginary part of the complement dips to {np.min(lam):.3e}")
        return out


def shared_core(pencil: RawPencil, pivot: PivotSubspace) -> SchurCore:
    """The ``SchurCore`` of a pencil and pivot basis, built where none is alive.

    The pencil, whose coefficients are read-only, lists its cores
    (``RawPencil.cores``) for as long as a caller holds them, as a
    ``PencilRepresentation`` holds its own: every caller handed the same
    pencil and a pivot basis of the same dtype, shape and bytes meanwhile
    evaluates through one partition and one set of check constants, at
    whatever tolerances it hands ``SchurCore.evaluate``.  So every support
    op's ``schur_pencil`` reuses the core that ``reconstruct`` built on the
    certificate's pencil.
    """
    basis = pivot.basis
    for core in pencil.cores:
        if core.basis.dtype == basis.dtype and core.basis.shape == basis.shape \
                and core.basis.tobytes() == basis.tobytes():
            return core
    core = SchurCore(pencil, pivot)
    pencil.cores.add(core)
    return core


def schur_pencil(
    pencil: RawPencil,
    x: tuple[np.ndarray, ...],
    s: PivotSubspace,
    tol: Tolerances = DEFAULT_TOL,
) -> np.ndarray:
    """Schur complement of the shifted pencil evaluation, keeping P = P_S (x) I.

    Arguments must lie in one of the operator half-spaces: all Re X_i > 0 or
    all Im X_i > 0.  The certificates and checks are those of
    ``SchurCore.evaluate`` at the floors of ``tol``, on the pencil's shared
    core (``shared_core``).
    """
    return shared_core(pencil, s).evaluate(x, tol=tol)
