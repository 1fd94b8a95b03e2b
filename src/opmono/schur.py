"""Shorted operators and Schur complements.

Two pivot conventions coexist in the literature and both are served here:
the shorted operator of a PSD matrix keeps the pivot block (maximality
semantics), while half-plane and sector results usually keep the block
complementary to the eliminated one.  ``schur_generic`` takes an explicit
``keep`` selector so each call site states its convention.

Every complement is eliminated by ``_eliminate`` under the one policy in
``Tolerances``.  A singular eliminated block is accepted exactly when the
complement is the same for every generalized inverse (``_complement``).
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
    Tolerances,
    check_args,
    dagger,
    fro_norm,
    herm_part,
    im_part,
    min_eig,
    min_eig_above,
    psd_floor,
    re_part,
    require_psd,
    sector_certified_alpha,
    sector_estimate,
    truncated_pinv,
    unit_vector,
)
from .pencil import RawPencil, kron_sum, pencil_arguments, range_eigh

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
    """Orthonormal basis of a distinguished subspace S and its projection."""

    ambient_dim: int
    basis: np.ndarray  # (ambient_dim, m), orthonormal columns

    def __post_init__(self) -> None:
        basis = np.asarray(self.basis, dtype=complex)
        if basis.ndim != 2 or basis.shape[0] != self.ambient_dim:
            raise DimensionMismatch("basis must be ambient_dim x m")
        if not np.isfinite(basis).all():
            raise DomainViolation("basis has a non-finite entry")
        gram = dagger(basis) @ basis
        if np.linalg.norm(gram - np.eye(basis.shape[1])) > DEFAULT_TOL.eq * basis.shape[1]:
            raise DimensionMismatch("basis columns are not orthonormal")
        object.__setattr__(self, "basis", basis)

    @classmethod
    def from_indices(cls, ambient_dim: int, indices: list[int]) -> "PivotSubspace":
        if any(not 0 <= idx < ambient_dim for idx in indices):
            raise BadConfig(f"pivot indices {list(indices)} must lie in 0..{ambient_dim - 1}")
        basis = np.zeros((ambient_dim, len(indices)), dtype=complex)
        for col, idx in enumerate(indices):
            basis[idx, col] = 1.0
        return cls(ambient_dim, basis)

    @classmethod
    def from_vector(cls, v: np.ndarray) -> "PivotSubspace":
        v = unit_vector(v)
        return cls(v.size, v[:, None])

    @classmethod
    def from_basis(cls, basis: np.ndarray) -> "PivotSubspace":
        basis = np.asarray(basis, dtype=complex)
        return cls(basis.shape[0], basis)

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @property
    def projection(self) -> np.ndarray:
        return self.basis @ dagger(self.basis)

    def perp_basis(self) -> np.ndarray:
        """Orthonormal basis of the orthogonal complement."""
        p = np.eye(self.ambient_dim) - self.projection
        w, u = np.linalg.eigh(herm_part(p))
        return u[:, w > 0.5]

    def embed(self, y: np.ndarray) -> np.ndarray:
        """Zero-pad an operator on S into the ambient space."""
        return self.basis @ np.asarray(y, dtype=complex) @ dagger(self.basis)


@dataclass(frozen=True)
class ShortedResult:
    """Shorted operator on S and the range-inclusion residual of its elimination."""

    shorted: np.ndarray
    defect: float


def _blocks(a: np.ndarray, s: PivotSubspace) -> tuple[np.ndarray, ...]:
    q = s.basis
    qp = s.perp_basis()
    a = np.asarray(a, dtype=complex)
    if a.shape != (s.ambient_dim, s.ambient_dim):
        raise DimensionMismatch(f"matrix shape {a.shape} vs ambient {s.ambient_dim}")
    return (
        dagger(q) @ a @ q,
        dagger(q) @ a @ qp,
        dagger(qp) @ a @ q,
        dagger(qp) @ a @ qp,
    )


def _complement(
    a: np.ndarray, s: PivotSubspace, keep: str, tol: Tolerances
) -> tuple[np.ndarray, np.ndarray, float]:
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
    sol = _eliminate(np.stack([d, dagger(d)]), np.stack([c, dagger(b)]), tol)[0]
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
    _, comp, residual = _complement(a, s, "s", tol)
    return ShortedResult(shorted=herm_part(comp), defect=residual)


def schur_generic(
    a: np.ndarray,
    s: PivotSubspace,
    keep: str = "s",
    tol: Tolerances = DEFAULT_TOL,
) -> np.ndarray:
    """Schur complement of a general matrix: kept block minus cross terms.

    ``keep="s"`` keeps the S block and eliminates its complement;
    ``keep="perp"`` keeps the complement and eliminates the S block.  A
    singular eliminated block is accepted when the complement does not
    depend on the generalized inverse taken (see ``_complement``).  ``a``
    takes ``matcore.check_args``.
    """
    (a,) = check_args((a,), 1, "schur_generic")
    return _complement(a, s, keep, tol)[1]


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
    a22, comp, _ = _complement(a, s, "perp", tol)
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


def in_right_halfspace(x: tuple[np.ndarray, ...], tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Per member of the stacked tuple: all components have positive definite real part."""
    floors = [psd_floor(m, tol) for m in x]
    return np.logical_and.reduce([min_eig_above(re_part(m), f) > f for m, f in zip(x, floors)])


def in_upper_halfspace(x: tuple[np.ndarray, ...], tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Per member of the stacked tuple: all components have positive definite imaginary part."""
    floors = [psd_floor(m, tol) for m in x]
    return np.logical_and.reduce([min_eig_above(im_part(m), f) > f for m, f in zip(x, floors)])


def _eliminate(d: np.ndarray, rhs: np.ndarray, tol: Tolerances) -> np.ndarray:
    """Solve the stacked systems D sol = rhs under the policy in ``Tolerances``."""
    try:
        inv = np.linalg.inv(d)
        full = tol.rank * fro_norm(d) * fro_norm(inv) < 1.0  # no singular value to truncate
    except np.linalg.LinAlgError:
        inv, full = np.zeros_like(d), np.zeros(d.shape[:-2], dtype=bool)
    if not full.all():
        inv[~full] = truncated_pinv(d[~full], tol)
    sol = inv @ rhs
    for _ in range(2):
        sol = sol + inv @ (rhs - d @ sol)
    residual = fro_norm(d @ sol - rhs)
    bound = tol.rank * (1.0 + fro_norm(rhs))
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
    Cholesky factor, which passing ``in_upper_halfspace`` leaves possible
    only at rounding level.
    """
    try:
        low = np.linalg.cholesky(im_part(z))
    except np.linalg.LinAlgError:
        return np.full(len(z), np.nan)
    linv = np.linalg.inv(low)
    return -0.5 * np.arctan2(1.0, np.min(min_eig(linv @ re_part(z) @ dagger(linv)), axis=-1))


def _check_sector_bound(
    rotated: np.ndarray, block: np.ndarray, comp: np.ndarray, tol: Tolerances
) -> None:
    """||S_c|| <= sec^2(alpha_c) ||L_c|| for essential blocks L_c (d x d) and complements S_c.

    ``rotated`` holds the certified blocks e^{i theta} T* L_c T of
    ``SchurCore.evaluate``.  A congruence keeps the argument of every x* L x,
    so alpha_c, the sector angle of ``sector_certified_alpha``, is read from
    them; the norms are those of ``block``, the L_c.  Three tiers, each
    deciding as the exact check does on the members it settles:

    1. ||S_c||_F <= max_j ||L_c e_j||: the bound holds for any alpha, as
       ||S||_2 <= ||S||_F <= max_j ||L e_j|| <= ||L||_2.
    2. The others take their spectral norms, one ``svd`` of the S_c and one
       of the L_c.  ||S_c||_2 <= ||L_c||_2 (1 + eq) settles a member for any
       alpha: cos^2 alpha <= 1, so ||L_c||_2 / cos^2 alpha >= ||L_c||_2 also
       in IEEE arithmetic.
    3. Only the members left open (NaN norms included) take their exact
       angle, and compare the same spectral norms.
    """
    unsettled = ~(fro_norm(comp) <= np.linalg.norm(block, axis=-2).max(axis=-1))
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


class SchurCore:
    """A pencil partitioned once against a pivot subspace S, for the Schur
    complements of its shifted evaluations that keep S (x) I.

    In the basis [Q, Q_perp] adapted to S two directions are coupled when a
    coefficient entry between them exceeds ``tol.rank`` times the largest.
    The complement is block diagonal over the connected components; those
    without a pivot direction drop out, the others are stacked by their
    numbers of pivot directions, of directions and of essential ones into
    ``groups`` of (kept, index, coeffs, essential, weights): each member's
    directions (g, c), ``kept`` pivot ones first, and its coefficients
    (g, K, c, c).  The essential directions are the eigenvectors E of the
    coefficient sum whose eigenvalues, the ``weights`` w (g, r), pass the
    ``tol.rank`` cut of ``range_eigh``; ``essential`` (g, K, r, r) holds the
    coefficients compressed to T = E W^{-1/2}, which sum to the identity:
    every essential direction has unit weight.  Both are None if nothing is
    eliminated.
    """

    def __init__(self, pencil: RawPencil, pivot: PivotSubspace, tol: Tolerances = DEFAULT_TOL):
        if pivot.ambient_dim != pencil.size:
            raise DimensionMismatch("pivot subspace must live on the coefficient space")
        self.pencil, self.basis, self.tol = pencil, pivot.basis, tol
        u = np.hstack([pivot.basis, pivot.perp_basis()])
        coeffs = dagger(u) @ np.stack(pencil.coeffs) @ u
        support = np.abs(coeffs).sum(axis=0)
        reach = (support > tol.rank * support.max()) | np.eye(pencil.size, dtype=bool)
        while not np.array_equal(grown := reach @ reach, reach):  # transitive closure
            reach = grown
        shapes: dict[tuple[int, int, int], list] = {}
        for first in np.unique(reach.argmax(axis=1)):
            comp = np.flatnonzero(reach[first])  # sorted, so pivot directions come first
            kept = int(np.count_nonzero(comp < pivot.dim))
            if kept:
                c = coeffs[:, comp[:, None], comp]
                w, e = (range_eigh(c.sum(axis=0), tol) if comp.size > kept
                        else (np.ones(0), np.zeros((comp.size, 0))))
                shapes.setdefault((kept, comp.size, w.size), []).append((comp, c, e / np.sqrt(w), w))
        self.groups = []
        for (kept, _, rank), members in shapes.items():
            index, c, t, w = (np.stack(z) for z in zip(*members))
            essential = dagger(t)[:, None] @ c @ t[:, None] if rank else None
            self.groups.append((kept, index, c, essential, w if rank else None))

    def evaluate(
        self,
        x: tuple[np.ndarray, ...],
        state: np.ndarray | None = None,
        halfspace: bool = False,
    ) -> np.ndarray:
        """Schur complement of the shifted evaluation at ``x``, keeping S (x) I.

        Returned whole in the coordinates of ``pivot.basis (x) I`` for one
        tuple, or with ``state`` as its partial trace against the state
        compressed to S, shape ``(..., n, n)`` for a tuple stacked on leading
        axes; a whole complement takes one tuple (DimensionMismatch for a
        stack).  With ``halfspace`` every member must lie in an operator
        half-space (else DomainViolation).  Each eliminated component is
        certified sectorial on its normalized essential block L~ = T* L T,
        T = E W^{-1/2} (x) I, at theta = 0 for a right half-space member and
        at the ``_aim`` of an upper one: lambda_min(Re(e^{i theta} L~)) must
        exceed the floor of ``Tolerances``, else NotSectorial for a right
        member and RotationNotFound for an upper one (a NaN aim included).
        For invertible T, Re(e^{i theta} T* L T) = T* Re(e^{i theta} L) T, so
        this certifies Re(e^{i theta} L) > 0 on the same essential directions,
        and the sector angle is the same.  ``_check_sector_bound`` then checks
        the sec^2(alpha) bound, and every upper member's output must keep a
        PSD imaginary part (else HalfPlaneViolated).  Neither the angle nor
        the scaling enters the complement, so the result equals that without
        ``halfspace``.
        """
        tol = self.tol
        args = pencil_arguments(self.pencil, x, shifted=True, one=state is None)
        lead, n = args.shape[:-3], args.shape[-1]
        if halfspace:
            right = np.broadcast_to(in_right_halfspace(x, tol), lead)
            if not (right.all() or np.all(right | in_upper_halfspace(x, tol))):
                raise DomainViolation("tuple lies in neither operator half-space")
            theta = np.zeros(lead)
            if not right.all():
                theta[~right] = _aim(args[~right][:, 1:] + np.eye(n))  # from the X_i of upper members
        args = args[..., None, :, :, :]  # against the members of each group
        m = self.basis.shape[1]
        out = np.zeros((m, n, m, n) if state is None else lead + (n, n), dtype=complex)
        t = None if state is None else dagger(self.basis) @ state @ self.basis
        checks = []
        for kept, index, coeffs, essential, weights in self.groups:
            full = kron_sum(coeffs, args)
            k = kept * n
            comp = full[..., :k, :k]
            if essential is not None:
                comp = comp - full[..., :k, k:] @ _eliminate(full[..., k:, k:], full[..., k:, :k], tol)
                if halfspace:
                    checks.append((kron_sum(essential, args), weights, comp))
            comp = comp.reshape(comp.shape[:-2] + (kept, n, kept, n))
            rows, cols = index[:, :kept, None], index[:, None, :kept]
            if state is None:
                out[rows, :, cols, :] = comp.transpose(0, 1, 3, 2, 4)
            else:
                out += np.einsum("gsr,...grisj->...ij", t[rows, cols], comp)
        out = out.reshape(m * n, m * n) if state is None else out
        if halfspace:
            for normalized, w, comp in checks:
                rotated = np.exp(1j * theta)[..., None, None, None] * normalized
                kappa = w[:, -1] / w[:, 0]
                floor = psd_floor(normalized, tol) + 16 * np.finfo(float).eps * kappa * fro_norm(normalized)
                failed = ~(min_eig_above(rotated, floor) > floor)  # NaN aims fail
                if np.any(failed & right[..., None]):
                    raise NotSectorial("an eliminated component of a right member is not sectorial")
                if failed.any():
                    raise RotationNotFound("the aimed rotation leaves an eliminated component unsectorial")
                root = np.repeat(np.sqrt(w), n, axis=-1)
                _check_sector_bound(rotated, root[:, :, None] * normalized * root[:, None, :], comp, tol)
            upper = out[~right]  # right is 0-d for a whole complement, so this adds an axis
            floor = -psd_floor(upper, tol)
            lam = min_eig_above(im_part(upper), floor)
            if np.any(lam < floor):
                raise HalfPlaneViolated(f"imaginary part of the complement dips to {np.min(lam):.3e}")
        return out


def schur_pencil(
    pencil: RawPencil,
    x: tuple[np.ndarray, ...],
    s: PivotSubspace,
    tol: Tolerances = DEFAULT_TOL,
) -> np.ndarray:
    """Schur complement of the shifted pencil evaluation, keeping P = P_S (x) I.

    Arguments must lie in one of the operator half-spaces: all Re X_i > 0 or
    all Im X_i > 0.  The certificates and checks are those of
    ``SchurCore.evaluate``.
    """
    return SchurCore(pencil, s, tol).evaluate(x, halfspace=True)
