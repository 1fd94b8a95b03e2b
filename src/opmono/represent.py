"""Supporting pencils, Schur-complement reconstruction, and representations.

The constructive pipeline: at a boundary point (F(A), A) of the hypograph
of an operator monotone free function, an affine support functional built
from the exact gradient matrices lifts to a linear pencil that is positive
on sampled hypograph members and exactly tight at the base point.  The
tightness forces a Schur-complement identity that reconstructs F(A)v from
the pencil alone, direct sums of base points give finite-dimensional
conditional-expectation representations of F itself, and quadrature on the
one-variable integral form gives representations with certified accuracy.
Reconstruction and every representation evaluate through ``schur``'s one
``SchurCore``, which splits the eliminated space into decoupled components
so that large quadrature pencils cost a few stacked solves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from .errors import (
    BadConfig,
    DimensionMismatch,
    DomainViolation,
    GradientNotPSD,
    HalfPlaneViolated,
    NegativeNormalization,
    NegativeSlack,
    NotPSD,
    QuadratureInaccurate,
    SupportViolated,
    VerificationFailed,
)
from .freefun import FreeFn, lift_scalar
from .matcore import DEFAULT_TOL, Tolerances, block_diag, fro_norm, herm_part, im_part, min_eig
from .pencil import LinearPencil, kron_sum, pencil_new
from .sampling import draw_gaussian, draw_spd, finish_psd, finish_spd, slots, stack_draws
from .schur import PivotSubspace, SchurCore, in_right_halfspace

__all__ = [
    "SupportCertificate",
    "support_pencil",
    "ReconstructionResult",
    "reconstruct",
    "DirectSumRepresentation",
    "direct_sum_rep",
    "PencilRepresentation",
    "rep_eval",
    "rep_from_quadrature",
    "rep_eval_complex",
]

MatTuple = tuple[np.ndarray, ...]
_DIRECT_SUM_GATE = 1e-6  # the relative miss of F(A_j) v_j a direct-sum representation may have


# ---------------------------------------------------------------------------
# supporting pencils


@dataclass(frozen=True)
class SupportCertificate:
    """Supporting pencil at a hypograph boundary point (F(A), A).

    The pencil evaluates as B_0 (x) I - vv* (x) Y + sum G_i (x) (X_i - I);
    ``c`` is the trace normalization tr(B_0), which equals the affine
    intercept of the support functional, making the certificate exactly
    tight at the base point.
    """

    function: str
    base_point: MatTuple
    v: np.ndarray
    pencil: LinearPencil
    c: float
    gradients: tuple[np.ndarray, ...]
    interval: tuple[float, float]
    support_margin: float
    scalar_margin: float
    trace_bound: float
    trace_slack: float
    samples: int
    seed: int


def _support_eval(b0, grads, v, y, x) -> np.ndarray:
    """B_0 (x) I - vv* (x) Y + sum G_i (x) (X_i - I) at stacked (Y, X).

    B_0, the G_i and v are a certificate's ``pencil.b0``, ``gradients`` and ``v``.
    """
    eye = np.eye(y.shape[-1])
    mats = np.stack(np.broadcast_arrays(eye, -y, *(xi - eye for xi in x)), axis=-3)
    return kron_sum(np.stack([b0, np.outer(v, np.conj(v)), *grads]), mats)


def _support_margin(b0, grads, v, sets) -> float:
    """Smallest eigenvalue of the supporting pencil over sets of stacked (X, Y)."""
    return min(float(np.min(min_eig(_support_eval(b0, grads, v, ys, xs)))) for xs, ys in sets)


def support_pencil(
    fn: FreeFn,
    a: MatTuple,
    v: np.ndarray,
    interval: tuple[float, float] = (0.5, 2.0),
    validation_samples: int = 200,
    seed: int = 0,
    tol: Tolerances = DEFAULT_TOL,
) -> SupportCertificate:
    """Construct and validate a supporting pencil at (F(A), A).

    The gradient matrices G_i of X -> v* F(X) v at A are
    ``fn.gradient(A, vv*)``: the exact adjoint when the function provides
    one, otherwise Richardson central differences along the Hermitian
    basis.  The leading coefficient is the first-order matched completion

        B_0 = Herm(F(A) vv*) - sum Herm(G_i (A_i - I)),

    whose trace automatically equals the affine intercept.  It must be PSD,
    dominate sum G_i, and pass scalar-grid support checks and randomized
    hypograph samples at sizes n and 2n before a certificate is issued;
    the first check it fails raises SupportViolated with its margin.
    """
    if not (fn.monotone and fn.concave):
        raise BadConfig(f"{fn.name} is not declared monotone and concave")
    a = fn._args(tuple(a))  # eigvalsh below needs finite input; fn.gradient repeats this cheap check
    n = a[0].shape[0]
    v = np.asarray(v, dtype=complex).reshape(-1)
    if v.size != n:
        raise DimensionMismatch("base vector dimension does not match the tuple")
    v = v / np.linalg.norm(v)
    c1, c2 = interval
    slack_dom = tol.eq * (1.0 + c2)
    for i, ai in enumerate(a):
        w = np.linalg.eigvalsh(herm_part(ai))
        if w[0] < c1 - slack_dom or w[-1] > c2 + slack_dom:
            raise DomainViolation(
                f"base point component {i + 1} has spectrum "
                f"[{w[0]:.4g}, {w[-1]:.4g}] outside [{c1:.4g}, {c2:.4g}]"
            )
    rng = np.random.default_rng(seed)

    vv = np.outer(v, np.conj(v))
    grads = [herm_part(g) for g in fn.gradient(a, vv)]

    for i, g in enumerate(grads):
        lam = min_eig(g)
        if lam < -10 * tol.psd * (1.0 + fro_norm(g)):
            raise GradientNotPSD(
                f"gradient matrix {i + 1} has minimum eigenvalue {lam:.3e}; "
                "the function is not monotone at the base point"
            )

    fa = herm_part(fn(a))
    eye = np.eye(n)
    alpha = float((np.conj(v) @ fa @ v).real) - sum(
        float(np.trace(g @ (ai - eye)).real) for g, ai in zip(grads, a)
    )
    if alpha <= tol.eq:
        raise NegativeNormalization(f"support intercept alpha = {alpha:.3e} is not positive")
    gsum = sum(grads)
    slack = alpha - float(np.trace(gsum).real)
    if slack < -tol.eq * (1.0 + alpha):
        raise NegativeSlack(
            f"alpha = {alpha:.4g} below tr(sum G_i) = {alpha - slack:.4g}; "
            "no PSD completion with the required trace exists"
        )

    b0 = herm_part(fa @ vv) - sum(herm_part(g @ (ai - eye)) for g, ai in zip(grads, a))
    lam = min_eig(b0)
    if lam < -tol.psd * (1.0 + fro_norm(b0)):
        raise SupportViolated(f"B_0 is not PSD: minimum eigenvalue {lam:.3e}")
    dom = b0 - gsum
    lam = min_eig(dom)
    if lam < -tol.psd * (1.0 + fro_norm(dom)):
        raise SupportViolated(f"B_0 does not dominate sum G_i: minimum eigenvalue of the gap {lam:.3e}")

    # trace bound from the all-c2 scalar value
    f_c2 = float(fn(tuple(np.array([[c2]], dtype=complex) for _ in range(fn.arity)))[0, 0].real)
    trace_bound = f_c2 / min(1.0, c1)

    gate = -max(1e-8, 10 * tol.psd)
    per_size = max(validation_samples // 2, 1)
    # the scalar grid: 9 points per slot on the interval, with Y = F(x)
    pts = np.linspace(c1, c2, 9)
    grid = np.stack(np.meshgrid(*([pts] * fn.arity)), axis=-1).reshape(-1, fn.arity)
    scalars = tuple(grid[:, i].reshape(-1, 1, 1).astype(complex) for i in range(fn.arity))
    scalar_set = (scalars, fn(scalars))
    sample_sets = []
    for ns in (n, 2 * n):
        draws = [draw_spd(rng, ns, c1, c2) for _ in range(per_size * fn.arity)]
        xs = slots(finish_spd(*stack_draws(draws)), fn.arity)
        dips = [(abs(rng.normal(0.0, 0.4)), draw_gaussian(rng, ns, ns)) for _ in range(per_size)]
        s, z = stack_draws(dips)
        ys = herm_part(fn(xs)) - s[:, None, None] * finish_psd(z)
        sample_sets.append((xs, ys))

    scalar_margin = _support_margin(b0, grads, v, [scalar_set])
    if scalar_margin < gate:
        raise SupportViolated(f"the pencil fails the scalar grid: margin {scalar_margin:.3e}")
    support_margin = _support_margin(b0, grads, v, sample_sets)
    if support_margin < gate:
        raise SupportViolated(f"the pencil fails the sampled hypograph: margin {support_margin:.3e}")
    return SupportCertificate(
        function=fn.name,
        base_point=a,
        v=v,
        pencil=pencil_new([b0] + grads, tol),
        c=alpha,
        gradients=tuple(grads),
        interval=interval,
        support_margin=float(support_margin),
        scalar_margin=float(scalar_margin),
        trace_bound=trace_bound,
        trace_slack=float(trace_bound - float(np.trace(b0).real)),
        samples=2 * per_size,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# reconstruction at the base point


@dataclass(frozen=True)
class ReconstructionResult:
    value: np.ndarray
    residual: float
    value_op: np.ndarray


def reconstruct(
    cert: SupportCertificate, tol: Tolerances = DEFAULT_TOL
) -> ReconstructionResult:
    """Recover F(A)v from the certificate by pivot elimination at span(v).

    Eliminates the complement of span(v) (x) I from the shifted pencil at
    the base point (``SchurCore``) and reports the tightness residual: the
    pivot-compressed defect of the support identity, computable from the
    certificate alone.  Values are trustworthy when the residual is small.
    """
    a = cert.base_point
    v = cert.v
    eye = np.eye(v.size)
    core = SchurCore(cert.pencil, PivotSubspace.from_vector(v), tol)
    value_op = herm_part(core.evaluate(a))
    value = value_op @ v

    anchor = cert.c + sum(
        float(np.trace(g @ (ai - eye)).real) for g, ai in zip(cert.gradients, a)
    )
    excess = float((np.conj(v) @ value_op @ v).real) - anchor
    return ReconstructionResult(
        value=value, residual=float(np.sqrt(abs(excess))), value_op=value_op
    )


# ---------------------------------------------------------------------------
# pencil representations


@dataclass(frozen=True)
class PencilRepresentation:
    """Pencil + pivot + finite-dimensional state realizing a free function.

    The state is a PSD trace-one density matrix T on the coefficient space;
    the conditional expectation (w (x) I) acts as the partial trace of
    (T (x) I) against the coefficient tensor factor.  ``fn`` is the realized
    function as a ``FreeFn``, declared operator monotone and concave, as is
    every function with a pencil representation.
    """

    pencil: LinearPencil
    pivot: PivotSubspace
    state: np.ndarray
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        state = herm_part(np.asarray(self.state, dtype=complex))
        if state.shape != (self.pencil.size, self.pencil.size):
            raise DimensionMismatch("state must act on the coefficient space")
        if not np.isfinite(state).all():
            raise DomainViolation("state must be finite")
        if min_eig(state) < -DEFAULT_TOL.psd * (1.0 + fro_norm(state)):
            raise NotPSD("state must be positive semidefinite")
        if abs(float(np.trace(state).real) - 1.0) > DEFAULT_TOL.eq:
            raise DomainViolation("state must have unit trace")
        if self.pivot.ambient_dim != self.pencil.size:
            raise DimensionMismatch("pivot must live on the coefficient space")
        object.__setattr__(self, "state", state)

    @property
    def arity(self) -> int:
        return self.pencil.arity

    @cached_property
    def fn(self) -> FreeFn:
        """``rep_eval``, continued by ``rep_eval_complex``."""
        name = f"{self.meta.get('function', 'pencil')}-rep"
        return FreeFn(name, self.arity, partial(rep_eval, self), partial(rep_eval_complex, self),
                      monotone=True, concave=True)

    @cached_property
    def _cores(self) -> dict[Tolerances, SchurCore]:
        return {}

    def core(self, tol: Tolerances = DEFAULT_TOL) -> SchurCore:
        """The pencil partitioned against the pivot, built once per tolerance."""
        if tol not in self._cores:
            self._cores[tol] = SchurCore(self.pencil, self.pivot, tol)
        return self._cores[tol]


def rep_eval(
    rep: PencilRepresentation, x: MatTuple, tol: Tolerances = DEFAULT_TOL
) -> np.ndarray:
    """Evaluate the representation at positive definite Hermitian tuples.

    As for every ``FreeFn``, components are stacked ``(..., n, n)`` and the
    output has one value per member; a member that is not positive definite
    raises DomainViolation.
    """
    xs = tuple(np.asarray(m, dtype=complex) for m in x)
    if any(np.any(min_eig(xi) <= 0) for xi in xs):
        raise DomainViolation("representation arguments must be positive definite")
    return herm_part(rep.core(tol).evaluate(xs, state=rep.state))


def rep_eval_complex(
    rep: PencilRepresentation, x: MatTuple, tol: Tolerances = DEFAULT_TOL
) -> np.ndarray:
    """Analytic continuation of the representation into the half-spaces.

    Takes stacked tuples as ``rep_eval`` does.  Every member must lie in the
    right or upper operator poly-halfspace (else DomainViolation); the
    rotation and the sec^2(alpha) check are ``SchurCore.evaluate``'s.  The
    output of each member outside the right half-space must keep a PSD
    imaginary part (else HalfPlaneViolated).
    """
    xs = tuple(np.asarray(m, dtype=complex) for m in x)
    out = rep.core(tol).evaluate(xs, state=rep.state, halfspace=True)
    lam = np.where(in_right_halfspace(xs, tol), np.inf, min_eig(im_part(out)))
    if np.any(lam < -tol.psd * (1.0 + fro_norm(out))):
        raise HalfPlaneViolated(
            f"imaginary part of the output dips to {np.min(lam):.3e}; representation broken"
        )
    return out


# ---------------------------------------------------------------------------
# direct-sum representations from base points


@dataclass(frozen=True)
class DirectSumRepresentation:
    rep: PencilRepresentation
    w_vector: np.ndarray
    certificate: SupportCertificate
    residuals: tuple[float, ...]


def direct_sum_rep(
    fn: FreeFn,
    points: list[tuple[MatTuple, np.ndarray]],
    interval: tuple[float, float] = (0.5, 2.0),
    validation_samples: int = 100,
    seed: int = 0,
    tol: Tolerances = DEFAULT_TOL,
) -> DirectSumRepresentation:
    """Representation exact on finitely many directions F(A_j) v_j.

    Stacks the points into one block-diagonal tuple with the balanced
    vector (1/sqrt J) (+) v_j, takes a single supporting certificate there,
    and uses the pure state at that vector.  The reconstruction identity
    then splits blockwise, so the representation reproduces F(A_j) v_j for
    every j; each residual must be within ``_DIRECT_SUM_GATE``
    (1 + ||F(A_j) v_j||) before the representation is returned.
    """
    if not points:
        raise BadConfig("need at least one base point")
    k = fn.arity
    sizes = [p[0][0].shape[0] for p in points]
    n = sizes[0]
    if any(s != n for s in sizes):
        raise DimensionMismatch("all base points must share one dimension")
    big_a = [block_diag(*(a_j[i] for a_j, _ in points)) for i in range(k)]
    w = np.concatenate([np.asarray(vj, dtype=complex).reshape(-1) for _, vj in points])
    w = w / np.linalg.norm(w)

    cert = support_pencil(
        fn, tuple(big_a), w, interval, validation_samples, seed=seed, tol=tol
    )
    rep = PencilRepresentation(
        pencil=cert.pencil,
        pivot=PivotSubspace.from_vector(w),
        state=np.outer(w, np.conj(w)),
        meta={"kind": "direct_sum", "function": fn.name, "points": len(points)},
    )
    xs = tuple(np.stack([a_j[i] for a_j, _ in points]) for i in range(k))
    vs = np.stack([np.asarray(v_j, dtype=complex).reshape(-1) for _, v_j in points])
    vs = (vs / np.linalg.norm(vs, axis=-1, keepdims=True))[..., None]
    lhs = herm_part(fn(xs)) @ vs
    residuals = fro_norm(rep_eval(rep, xs, tol) @ vs - lhs)
    if not np.all(residuals <= _DIRECT_SUM_GATE * (1.0 + fro_norm(lhs))):
        raise VerificationFailed(
            f"direct-sum representation misses F(A_j)v_j by {np.max(residuals):.3e}"
        )
    return DirectSumRepresentation(
        rep=rep, w_vector=w, certificate=cert, residuals=tuple(map(float, residuals))
    )


# ---------------------------------------------------------------------------
# quadrature representations for one-variable functions


def _quad_rational_weights(
    name: str, p: float | None, nodes: int, interval: tuple[float, float]
) -> tuple[np.ndarray, np.ndarray, float, float]:
    """Nodes and weights for f(x) ~ a + b x + sum t_r lam_r x / (lam_r + x).

    log1p uses the exact finite form log(1+x) = int_0^1 x/(1+ux) du on a
    Gauss-Legendre grid.  The power family integrates its Cauchy density on
    a geometric grid with the two tails folded into the affine part a + bx,
    choosing the cutoffs so the folding error sits far below the target.
    """
    c1, c2 = interval
    if name == "log1p":
        u, wts = np.polynomial.legendre.leggauss(nodes)
        u = 0.5 * (u + 1.0)
        wts = 0.5 * wts
        lam = 1.0 / u
        return lam, wts, 0.0, 0.0
    if name == "sqrt":
        p = 0.5
    if p is None or not (0.0 < p < 1.0):
        raise QuadratureInaccurate("quadrature supports sqrt, log1p, and pow with p in (0,1)")
    spp = np.sin(np.pi * p) / np.pi
    lam_lo = (1e-5 * c1 ** (p + 1) * (p + 1) / spp) ** (1.0 / (p + 1))
    lam_hi = (1e5 * c2 ** (2 - p) * spp / (2 - p)) ** (1.0 / (2 - p))
    lam_hi = max(lam_hi, 10 * c2)
    lam_lo = min(lam_lo, 0.1 * c1)
    s = np.linspace(np.log(lam_lo), np.log(lam_hi), nodes)
    h = s[1] - s[0]
    lam = np.exp(s)
    wts = spp * h * np.exp((p - 1.0) * s)
    wts[0] *= 0.5
    wts[-1] *= 0.5
    a0 = (spp / p) * lam_lo**p
    b0 = (spp / (1.0 - p)) * lam_hi ** (p - 1.0)
    return lam, wts, a0, b0


def rep_from_quadrature(
    name: str,
    nodes: int = 64,
    interval: tuple[float, float] = (0.1, 10.0),
    p: float | None = None,
    target: float = 1e-3,
    tol: Tolerances = DEFAULT_TOL,
) -> PencilRepresentation:
    """Pencil representation of a one-variable catalogue function.

    Each rational term lam x / (lam + x) is realized as the pivot Schur
    complement of the 2 x 2 cell [[lam, lam], [lam, x + lam]]; the cells and
    one affine slot are assembled block-diagonally, the state is uniform on
    the pivot slots, and the quadrature weights are folded into per-cell
    scalings.  The scalar accuracy is certified at 100 equispaced points of
    the interval against the exact function before the representation is
    returned.
    """
    if nodes < 4:
        raise QuadratureInaccurate("need at least four quadrature nodes")
    fn = lift_scalar(name, p)
    lam, wts, a0, b0 = _quad_rational_weights(name, p, nodes, interval)
    if np.any(wts <= 0):
        raise QuadratureInaccurate("quadrature produced nonpositive weights")

    n_cells, u_weight = lam.size, 1.0 / (lam.size + 1)
    kdim = 2 * n_cells + 1
    gamma, gamma_aff = (wts / u_weight)[:, None, None], 1.0 / u_weight
    e22 = np.diag([0.0, 1.0])  # cell r: gamma_r (lam_r 1 1* + e22) in B_0, gamma_r e22 in B_1
    b0_mat = block_diag(*(gamma * (lam[:, None, None] + e22)), [[gamma_aff * (a0 + b0)]])
    b1_mat = block_diag(*(gamma * e22), [[gamma_aff * b0]])
    pivot_cols = list(range(0, kdim, 2))  # each cell's first slot, then the affine slot
    state = np.zeros(kdim)
    state[pivot_cols] = u_weight

    rep = PencilRepresentation(
        pencil=pencil_new([b0_mat, b1_mat], tol),
        pivot=PivotSubspace.from_indices(kdim, pivot_cols),
        state=np.diag(state),
        meta={"kind": "quadrature", "function": fn.name, "nodes": int(n_cells)},
    )

    xs = np.linspace(interval[0], interval[1], 100).reshape(-1, 1, 1)
    approx = rep_eval(rep, (xs,), tol)[:, 0, 0].real
    exact = fn(xs)[:, 0, 0].real
    rel = float(np.max(np.abs(approx - exact) / np.abs(exact)))
    if rel > target:
        raise QuadratureInaccurate(
            f"scalar validation error {rel:.3e} exceeds the requested {target:.1e}"
        )
    rep.meta["scalar_error"] = rel
    return rep
