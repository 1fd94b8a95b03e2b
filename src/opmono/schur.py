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
    NotPSD,
    NotSectorial,
    RotationNotFound,
    SectorBoundViolated,
)
from .matcore import (
    DEFAULT_TOL,
    Tolerances,
    dagger,
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
    complement is K itself.  A non-finite entry raises DomainViolation.
    """
    if not np.isfinite(a).all():
        raise DomainViolation("matrix has a non-finite entry")
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
    input ran A_21 lies in ran A_22, which the elimination checks.
    """
    a = herm_part(np.asarray(a, dtype=complex))
    lam = min_eig(a)
    if lam < -tol.psd * (1.0 + fro_norm(a)):
        raise NotPSD(f"input has minimum eigenvalue {lam:.3e}")
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
    depend on the generalized inverse taken (see ``_complement``).
    """
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
    (NotSectorial otherwise), eliminates the S block (keeping its
    complement, whose raw block is A_22), and compares sigma_j of the
    complement against sec^2(alpha) * sigma_j(A_22), plus the norm form
    ||S(A)|| <= sec^2(alpha) ||A||.
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
    return np.logical_and.reduce([min_eig(re_part(m)) > tol.psd * (1 + fro_norm(m)) for m in x])


def in_upper_halfspace(x: tuple[np.ndarray, ...], tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Per member of the stacked tuple: all components have positive definite imaginary part."""
    return np.logical_and.reduce([min_eig(im_part(m)) > tol.psd * (1 + fro_norm(m)) for m in x])


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


def _find_rotation(blocks: list[np.ndarray], tol: Tolerances) -> float:
    """The first probed angle in (-pi/2, 0] at which every rotated block has a positive margin.

    A block B has margin lambda_min(Re(e^{i theta} B)) - tol.psd (1 + ||B||_F)
    at theta.  W(B) is convex and lies in the closed upper half-plane, so
    each margin is unimodal on (-pi/2, 0] and so is their minimum.  The
    probes are theta = 0, then the two interior points and the 48 steps of
    a golden-section search for its maximum (to 1.5e-10 rad).  The
    certificate needs one angle with a positive worst margin, not the best
    one, so the first such probe is returned.  Golden section always keeps
    the better of its two points, so the whole search would end at the best
    of its probes: it fails exactly when no probe is positive, and then
    RotationNotFound is raised.
    """
    floors = [tol.psd * (1.0 + fro_norm(b)) for b in blocks]

    def margin(theta: float) -> float:
        rotated = (herm_part(np.exp(1j * theta) * b) for b in blocks)
        lams = (np.linalg.eigvalsh(r)[..., 0] - f for r, f in zip(rotated, floors))
        return min((float(np.min(lam)) for lam in lams), default=np.inf)

    def probes():
        yield 0.0, margin(0.0)
        shrink = (np.sqrt(5.0) - 1.0) / 2.0
        lo, hi = -np.pi / 2, 0.0
        a, b = hi - shrink * (hi - lo), lo + shrink * (hi - lo)
        yield a, (fa := margin(a))
        yield b, (fb := margin(b))
        for _ in range(48):
            if fa < fb:
                lo, a, fa = a, b, fb
                b = lo + shrink * (hi - lo)
                yield b, (fb := margin(b))
            else:
                hi, b, fb = b, a, fa
                a = hi - shrink * (hi - lo)
                yield a, (fa := margin(a))

    for theta, value in probes():
        if value > 0:
            return float(theta)
    raise RotationNotFound("no rotation in (-pi/2, 0] stabilizes the pencil evaluation")


def _check_sector_bound(
    rotated: np.ndarray, comp: np.ndarray, right: np.ndarray, tol: Tolerances
) -> None:
    """||S_c|| <= sec^2(alpha_c) ||L_c|| for rotated essential blocks L_c (d x d), complements S_c.

    Sectoriality, lambda_min(Re L_c) > tol.psd (1 + ||L_c||_F), is checked
    only for the ``right`` members (angle 0): ``_find_rotation`` certified it
    for the others.  Where sqrt(d) ||S_c||_F <= ||L_c||_F the bound holds for
    any alpha, as ||S||_2 <= ||S||_F and ||L||_F <= sqrt(d) ||L||_2; only the
    other members (NaN norms included) take the exact angle alpha_c of
    ``sector_certified_alpha`` and the spectral norms.
    """
    checked = rotated[np.broadcast_to(right[..., None], rotated.shape[:-2])]
    if checked.size and not np.all(min_eig(checked) > tol.psd * (1.0 + fro_norm(checked))):
        raise NotSectorial("an eliminated component is not sectorial after rotation")
    unsettled = ~(np.sqrt(rotated.shape[-1]) * fro_norm(comp) <= fro_norm(rotated))
    if unsettled.any():
        rotated, comp = rotated[unsettled], comp[unsettled]
        alphas, _ = sector_certified_alpha(rotated)
        lhs = np.linalg.svd(comp, compute_uv=False)[..., 0]
        rhs = np.linalg.svd(rotated, compute_uv=False)[..., 0] / np.cos(alphas) ** 2
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

        Returned whole in the coordinates of ``pivot.basis (x) I`` for one
        tuple, or with ``state`` as its partial trace against the state
        compressed to S, shape ``(..., n, n)`` for a tuple stacked on leading
        axes.  With ``halfspace`` every member must lie in an operator
        half-space; each upper half-space member rotates its eliminated
        components by its own angle from ``_find_rotation``, the first one
        probed that certifies them sectorial (all essential real parts
        positive definite).  Right half-space members keep angle 0 and are
        certified by ``_check_sector_bound``, which then checks each
        component against the sec^2(alpha) bound that holds in any certified
        sector; Frobenius norms settle most components without their exact
        angle.  The angle feeds only these checks: the complement does not
        depend on it, so the result equals that without ``halfspace``.
        """
        tol = self.tol
        args = pencil_arguments(self.pencil, x, shifted=True)
        lead, n = args.shape[:-3], args.shape[-1]
        if halfspace:
            right = np.broadcast_to(in_right_halfspace(x, tol), lead)
            if not np.all(right | in_upper_halfspace(x, tol)):
                raise DomainViolation("tuple lies in neither operator half-space")
        args = args[..., None, :, :, :]  # against the members of each group
        m = self.basis.shape[1]
        out = np.zeros((m, n, m, n) if state is None else lead + (n, n), dtype=complex)
        t = None if state is None else dagger(self.basis) @ state @ self.basis
        checks = []
        for kept, index, coeffs, essential in self.groups:
            full = kron_sum(coeffs, args)
            k = kept * n
            comp = full[..., :k, :k]
            if essential is not None:
                comp = comp - full[..., :k, k:] @ _eliminate(full[..., k:, k:], full[..., k:, :k], tol)
                if halfspace:
                    checks.append((kron_sum(essential, args), comp))
            comp = comp.reshape(comp.shape[:-2] + (kept, n, kept, n))
            rows, cols = index[:, :kept, None], index[:, None, :kept]
            if state is None:
                out[rows, :, cols, :] = comp.transpose(0, 1, 3, 2, 4)
            else:
                out += np.einsum("gsr,...grisj->...ij", t[rows, cols], comp)
        if halfspace:
            theta = np.zeros(lead)
            for i in np.ndindex(lead):
                if not right[i]:
                    theta[i] = _find_rotation([blk[i] for blk, _ in checks], tol)
            for blk, comp in checks:
                _check_sector_bound(np.exp(1j * theta)[..., None, None, None] * blk, comp, right, tol)
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
