"""Shorted operators and Schur complements.

Two pivot conventions coexist in the literature and both are served here:
the shorted operator of a PSD matrix keeps the pivot block (maximality
semantics), while half-plane and sector results usually keep the block
complementary to the eliminated one.  ``schur_generic`` takes an explicit
``keep`` selector so each call site states its convention.

The shorted operator tolerates singular eliminated blocks through the
Douglas factorization (range inclusion holds for PSD inputs);
``schur_generic`` refuses singular eliminated blocks instead, since no
range guarantee exists for general matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    DomainViolation,
    EliminatedBlockDefective,
    EliminatedBlockSingular,
    NotPSD,
    NotSectorial,
    RotationNotFound,
    SectorBoundViolated,
)
from .matcore import (
    DEFAULT_TOL,
    Tolerances,
    dagger,
    douglas_factor,
    fro_norm,
    herm_part,
    im_part,
    min_eig,
    re_part,
    sector_certified_alpha,
    sector_estimate,
    truncated_pinv,
)
from .pencil import RawPencil, kron_sum, pencil_arguments, range_basis

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
        gram = dagger(basis) @ basis
        if np.linalg.norm(gram - np.eye(basis.shape[1])) > DEFAULT_TOL.eq * basis.shape[1]:
            raise DimensionMismatch("basis columns are not orthonormal")
        object.__setattr__(self, "basis", basis)

    @classmethod
    def from_indices(cls, ambient_dim: int, indices: list[int]) -> "PivotSubspace":
        basis = np.zeros((ambient_dim, len(indices)), dtype=complex)
        for col, idx in enumerate(indices):
            basis[idx, col] = 1.0
        return cls(ambient_dim, basis)

    @classmethod
    def from_vector(cls, v: np.ndarray) -> "PivotSubspace":
        v = np.asarray(v, dtype=complex).reshape(-1)
        return cls(v.size, (v / np.linalg.norm(v))[:, None])

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
    """Shorted operator on S, its Douglas factor, and the factorization defect."""

    shorted: np.ndarray
    factor_c: np.ndarray
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


def shorted_psd(
    a: np.ndarray, s: PivotSubspace, tol: Tolerances = DEFAULT_TOL
) -> ShortedResult:
    """Shorted operator of a PSD matrix on the subspace S.

    Returns ``A_11 - C* C`` with C the Douglas factor of (A_22, A_21); the
    result is the maximal self-adjoint operator on S sitting below A.
    Singular A_22 is handled by the pseudoinverse route, justified by the
    range inclusion ran(A_21) in ran(A_22^{1/2}) valid for PSD inputs.
    """
    a = herm_part(np.asarray(a, dtype=complex))
    lam = min_eig(a)
    if lam < -tol.psd * (1.0 + fro_norm(a)):
        raise NotPSD(f"input has minimum eigenvalue {lam:.3e}")
    a11, _, a21, a22 = _blocks(a, s)
    c = douglas_factor(a22, a21, tol)
    root_res = np.linalg.norm(_sqrt_psd(a22) @ c - a21)
    shorted = herm_part(a11 - dagger(c) @ c)
    return ShortedResult(shorted=shorted, factor_c=c, defect=float(root_res))


def _sqrt_psd(a: np.ndarray) -> np.ndarray:
    w, u = np.linalg.eigh(herm_part(a))
    return (u * np.sqrt(np.clip(w, 0.0, None))) @ dagger(u)


def schur_generic(
    a: np.ndarray,
    s: PivotSubspace,
    keep: str = "s",
    tol: Tolerances = DEFAULT_TOL,
) -> np.ndarray:
    """Schur complement of a general matrix: kept block minus cross terms.

    ``keep="s"`` keeps the S block and eliminates its complement;
    ``keep="perp"`` keeps the complement and eliminates the S block.  The
    eliminated block must be invertible (smallest singular value above
    ``tol.rank`` times the largest).
    """
    a11, a12, a21, a22 = _blocks(np.asarray(a, dtype=complex), s)
    if keep == "s":
        kept, cross_kr, cross_rk, removed = a11, a12, a21, a22
    elif keep == "perp":
        kept, cross_kr, cross_rk, removed = a22, a21, a12, a11
    else:
        raise ValueError("keep must be 's' or 'perp'")
    if removed.size == 0:
        return kept
    sv = np.linalg.svd(removed, compute_uv=False)
    if sv[-1] <= tol.rank * sv[0]:
        raise EliminatedBlockSingular(
            f"eliminated block has singular values within {sv[-1]:.3e}/{sv[0]:.3e}"
        )
    return kept - cross_kr @ np.linalg.solve(removed, cross_rk)


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
    (NotSectorial otherwise), eliminates the S block (keeping its
    complement, whose raw block is A_22), and compares sigma_j of the
    complement against sec^2(alpha) * sigma_j(A_22), plus the norm form
    ||S(A)|| <= sec^2(alpha) ||A||.
    """
    a = np.asarray(a, dtype=complex)
    alpha = sector_estimate(a, tol).alpha
    comp = schur_generic(a, s, keep="perp", tol=tol)
    _, _, _, a22 = _blocks(a, s)
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


def in_right_halfspace(x: tuple[np.ndarray, ...], tol: Tolerances = DEFAULT_TOL) -> bool:
    """All components have positive definite real part."""
    return all(min_eig(re_part(xi)) > tol.psd * (1.0 + fro_norm(xi)) for xi in x)


def in_upper_halfspace(x: tuple[np.ndarray, ...], tol: Tolerances = DEFAULT_TOL) -> bool:
    """All components have positive definite imaginary part."""
    return all(min_eig(im_part(xi)) > tol.psd * (1.0 + fro_norm(xi)) for xi in x)


def _eliminate(d: np.ndarray, rhs: np.ndarray, tol: Tolerances) -> np.ndarray:
    """Solve the stacked systems D sol = rhs under the policy in ``Tolerances``."""
    try:
        inv = np.linalg.inv(d)
        full = tol.rank * fro_norm(d) * fro_norm(inv) < 1.0  # no singular value to truncate
    except np.linalg.LinAlgError:
        inv, full = np.zeros_like(d), np.zeros(len(d), dtype=bool)
    if not full.all():
        inv[~full] = truncated_pinv(d[~full], tol)
    sol = inv @ rhs
    for _ in range(2):
        sol = sol + inv @ (rhs - d @ sol)
    residual = fro_norm(d @ sol - rhs)
    bound = tol.rank * (1.0 + fro_norm(rhs))
    if not np.all(residual <= bound):
        worst = int(np.argmax(residual / bound))
        raise EliminatedBlockDefective(
            f"eliminated block fails range inclusion: residual "
            f"{residual[worst]:.3e} > {bound[worst]:.3e}"
        )
    return sol


def _find_rotation(blocks: list[np.ndarray], tol: Tolerances) -> float:
    """Angle in (-pi/2, 0] maximising the worst margin of the rotated blocks.

    A block B has margin lambda_min(Re(e^{i theta} B)) - tol.psd (1 + ||B||_F)
    at theta.  W(B) is convex and lies in the closed upper half-plane, so
    each margin is unimodal on (-pi/2, 0] and so is their minimum.  theta = 0
    is tried first, then 48 golden-section steps bracket the maximum to
    1.5e-10 rad.  Raises RotationNotFound when the maximum is not positive.
    """
    floors = [tol.psd * (1.0 + fro_norm(b)) for b in blocks]

    def margin(theta: float) -> float:
        rotated = (herm_part(np.exp(1j * theta) * b) for b in blocks)
        lams = (np.linalg.eigvalsh(r)[..., 0] - f for r, f in zip(rotated, floors))
        return min((float(np.min(lam)) for lam in lams), default=np.inf)

    if margin(0.0) > 0:
        return 0.0
    shrink = (np.sqrt(5.0) - 1.0) / 2.0
    lo, hi = -np.pi / 2, 0.0
    a, b = hi - shrink * (hi - lo), lo + shrink * (hi - lo)
    fa, fb = margin(a), margin(b)
    for _ in range(48):
        if fa < fb:
            lo, a, fa = a, b, fb
            b = lo + shrink * (hi - lo)
            fb = margin(b)
        else:
            hi, b, fb = b, a, fa
            a = hi - shrink * (hi - lo)
            fa = margin(a)
    theta, best = (a, fa) if fa >= fb else (b, fb)
    if not best > 0:
        raise RotationNotFound("no rotation in (-pi/2, 0] stabilizes the pencil evaluation")
    return float(theta)


def _check_sector_bound(rotated: np.ndarray, comp: np.ndarray, tol: Tolerances) -> None:
    """||S_c|| <= sec^2(alpha_c) ||L_c|| for rotated essential blocks L_c and complements S_c.

    alpha_c is the exact sector angle of ``sector_certified_alpha``.
    """
    alphas, margins = sector_certified_alpha(rotated)
    if not np.all(margins > tol.psd * (1.0 + fro_norm(rotated))):
        raise NotSectorial("an eliminated component is not sectorial after rotation")
    lhs = np.linalg.svd(comp, compute_uv=False)[:, 0]
    rhs = np.linalg.svd(rotated, compute_uv=False)[:, 0] / np.cos(alphas) ** 2
    if np.any(lhs > rhs * (1.0 + tol.eq)):
        worst = int(np.argmax(lhs / rhs))
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
    ``groups`` of (kept, index, coeffs, essential): each member's directions
    (g, c), ``kept`` pivot ones first, its coefficients (g, K, c, c) and
    those compressed to the range of their sum (g, K, r, r), or None when
    nothing is eliminated.
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
                e = range_basis(c.sum(axis=0), tol) if comp.size > kept else np.zeros((comp.size, 0))
                shapes.setdefault((kept, comp.size, e.shape[1]), []).append((comp, c, e))
        self.groups = []
        for (kept, _, rank), members in shapes.items():
            index, c, e = (np.stack(z) for z in zip(*members))
            essential = dagger(e)[:, None] @ c @ e[:, None] if rank else None
            self.groups.append((kept, index, c, essential))

    def evaluate(
        self,
        x: tuple[np.ndarray, ...],
        state: np.ndarray | None = None,
        halfspace: bool = False,
    ) -> np.ndarray:
        """Schur complement of the shifted evaluation at ``x``, keeping S (x) I.

        Returned whole in the coordinates of ``pivot.basis (x) I``, or with
        ``state`` as its partial trace against the state compressed to S.
        With ``halfspace`` the tuple must lie in an operator half-space;
        upper half-space tuples rotate the eliminated components by the
        angle of ``_find_rotation``, which makes all their essential real
        parts positive definite (the complement does not depend on it), and
        each component is checked against the sec^2(alpha) bound.
        """
        tol = self.tol
        args = pencil_arguments(self.pencil, x, shifted=True)
        n = args.shape[-1]
        if halfspace:
            right = in_right_halfspace(x, tol)
            if not (right or in_upper_halfspace(x, tol)):
                raise DomainViolation("tuple lies in neither operator half-space")
        m = self.basis.shape[1]
        out = np.zeros((m, n, m, n) if state is None else (n, n), dtype=complex)
        t = None if state is None else dagger(self.basis) @ state @ self.basis
        checks = []
        for kept, index, coeffs, essential in self.groups:
            full = kron_sum(coeffs, args)
            k = kept * n
            comp = full[:, :k, :k]
            if essential is not None:
                comp = comp - full[:, :k, k:] @ _eliminate(full[:, k:, k:], full[:, k:, :k], tol)
                if halfspace:
                    checks.append((kron_sum(essential, args), comp))
            comp = comp.reshape(-1, kept, n, kept, n)
            rows, cols = index[:, :kept, None], index[:, None, :kept]
            if state is None:
                out[rows, :, cols, :] = comp.transpose(0, 1, 3, 2, 4)
            else:
                out += np.einsum("gsr,grisj->ij", t[rows, cols], comp)
        if halfspace:
            theta = 0.0 if right else _find_rotation([blk for blk, _ in checks], tol)
            for blk, comp in checks:
                _check_sector_bound(np.exp(1j * theta) * blk, comp, tol)
        return out.reshape(m * n, m * n) if state is None else out


def schur_pencil(
    pencil: RawPencil,
    x: tuple[np.ndarray, ...],
    s: PivotSubspace,
    tol: Tolerances = DEFAULT_TOL,
) -> np.ndarray:
    """Schur complement of the shifted pencil evaluation, keeping P = P_S (x) I.

    Arguments must lie in one of the operator half-spaces: all Re X_i > 0 or
    all Im X_i > 0.  The rotation and the sec^2(alpha) check are those of
    ``SchurCore.evaluate``.
    """
    return SchurCore(pencil, s, tol).evaluate(x, halfspace=True)
