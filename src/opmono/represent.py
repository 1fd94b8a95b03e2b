"""Supporting pencils, Schur-complement reconstruction, and representations.

The constructive pipeline: at a boundary point (F(A), A) of the hypograph
of an operator monotone free function, an affine support functional built
from the exact gradient matrices lifts to a linear pencil that is positive
on sampled graph points (F(X), X), the worst hypograph members, and, for
one or two arguments, exactly tight at the base point.  For means of three
or more arguments the completion is in general not tight (on random base
points the harmonic mean was tight only when n >= k, the Karcher mean at
no n from 2 to 5), so ``reconstruct``'s residual must be read first.
A certificate is itself a pencil representation (``SupportCertificate.rep``):
the Schur complement R(X) of its pencil that keeps span(v) (x) I, read in
the state vv*, lies above F wherever the certificate holds and, where it
is tight, reproduces F(A)v at the base point.  ``reconstruct`` evaluates
that representation at A, and a direct sum of base points is the
representation of one certificate at their block-diagonal tuple, exact on
every F(A_j) v_j.  Gauss quadrature on the one-variable integral form gives
representations that lie below F, with their accuracy sampled on the
interval.  Every representation evaluates through ``schur``'s one
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
    NegativeNormalization,
    NegativeSlack,
    NotPSD,
    QuadratureInaccurate,
    SupportViolated,
    VerificationFailed,
)
from .freefun import FreeFn, lift_scalar
from .matcore import (DEFAULT_TOL, Tolerances, block_diag, check_args, fro_norm, herm_part, min_eig, min_eig_above,
                      require_psd, unit_vector)
from .pencil import LinearPencil, kron_sum, pencil_new
from .sampling import draw, finish_spd, slots, spd_plan
from .schur import PivotSubspace, SchurCore

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
    intercept of the support functional.  For one or two arguments that
    makes the certificate exactly tight at the base point; for k >= 3 it
    need not be, and ``reconstruct``'s residual shows how far it is off.
    ``support_margin`` is a lower bound on the pencil's smallest eigenvalue
    at ``samples`` graph points (F(X), X) of sizes n and 2n
    (``_graph_margins``); for a lift it is that smallest eigenvalue, taken
    blockwise from f on each sample's spectrum.  The certificate is a
    pencil representation of an upper bound of F (``rep``).
    """

    function: str
    base_point: MatTuple
    v: np.ndarray
    pencil: LinearPencil
    c: float
    interval: tuple[float, float]
    support_margin: float
    scalar_margin: float
    trace_bound: float
    trace_slack: float
    samples: int
    seed: int

    @property
    def gradients(self) -> tuple[np.ndarray, ...]:
        """The gradient matrices G_i, stored once as the pencil's B_1, ..., B_k."""
        return self.pencil.bi

    @cached_property
    def rep(self) -> PencilRepresentation:
        """The certificate as a representation: the pencil, pivot span(v), state vv*.

        With A(X) = B_0 (x) I + sum G_i (x) (X_i - I), the pencil is
        L(Y, X) = A(X) - vv* (x) Y.  Where the block of A(X) off v (x) C^n is
        positive definite, L(Y, X) >= 0 exactly when Y <= R(X), R(X) the
        Schur complement of A(X) that keeps v (x) C^n.  So R >= F wherever the
        certificate holds, on the interval it validated, and R(A)v = F(A)v
        when it is tight, as it is for one or two arguments (``reconstruct``
        reports how far it is off).  Built once per certificate.
        """
        return PencilRepresentation(self.pencil, PivotSubspace.from_vector(self.v),
                                    np.outer(self.v, np.conj(self.v)),
                                    {"kind": "support", "function": self.function})


def _tangent(grads, a: MatTuple) -> float:
    """The tangent term sum tr G_i (A_i - I) of the support functional at A."""
    eye = np.eye(a[0].shape[-1])
    return sum(float(np.trace(g @ (ai - eye)).real) for g, ai in zip(grads, a))


def _support_eval(b0, grads, v, y, x) -> np.ndarray:
    """B_0 (x) I - vv* (x) Y + sum G_i (x) (X_i - I) at stacked (Y, X).

    B_0, the G_i and v are a certificate's ``pencil.b0``, ``gradients`` and ``v``.
    """
    eye = np.eye(y.shape[-1])
    mats = np.stack(np.broadcast_arrays(eye, -y, *(xi - eye for xi in x)), axis=-3)
    return kron_sum(np.stack([b0, np.outer(v, np.conj(v)), *grads]), mats)


def _graph_margins(fn: FreeFn, b0, grads, v, z, lam) -> np.ndarray:
    """Per-sample lambda_min L(F(X), X), X = U diag(lam) U* = finish_spd(z, lam).

    L decreases in Y, so the graph is the worst hypograph member at X.  A
    lift whose declaration may be read (``FreeFn._declared_at``) has
    U* F(X) U = diag(f(lam)), so (I (x) U)* L (I (x) U) is the direct sum of
    M_j = B_0 + (lam_j - 1) G - f(lam_j) vv*, and lambda_min L is the least
    lambda_min M_j, read from the drawn spectra without forming U, X or
    F(X).  Every other function, whatever its arity, takes lambda_min L at
    the evaluated F(X) over the whole pencil.
    """
    d = fn._declared_at(lam) if fn.arity == 1 else None
    if d is None:
        xs = slots(finish_spd(z, lam), fn.arity)
        return min_eig(_support_eval(b0, grads, v, herm_part(fn(xs)), xs))
    blocks = b0 + (lam - 1.0)[..., None, None] * grads[0] - d[..., None, None] * np.outer(v, np.conj(v))
    return np.min(min_eig(blocks), axis=-1)


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

    whose trace automatically equals the affine intercept.  Each G_i must be
    PSD (else GradientNotPSD), and ``pencil_new`` validates the pencil
    [B_0, G_1, ..., G_k], reusing the margins of the G_i: a B_0 that is not
    PSD raises CoefficientNotPSD, one that does not dominate sum G_i
    DominanceViolated.  The pencil must then stay positive on a scalar grid
    and on random graph points at sizes n and 2n (``_graph_margins``) before
    a certificate is issued, else SupportViolated.
    """
    if not (fn.monotone and fn.concave):
        raise BadConfig(f"{fn.name} is not declared monotone and concave")
    a = fn._args(tuple(a), one=True)  # eigvalsh below needs finite input; fn.gradient repeats this cheap check
    n = a[0].shape[0]
    v = unit_vector(v)
    if v.size != n:
        raise DimensionMismatch("base vector dimension does not match the tuple")
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

    margins = [require_psd(g, GradientNotPSD, f"not monotone at the base point: gradient matrix {i}", tol)
               for i, g in enumerate(grads, 1)]

    fa = herm_part(fn(a))
    eye = np.eye(n)
    alpha = float((np.conj(v) @ fa @ v).real) - _tangent(grads, a)
    if alpha <= tol.eq:
        raise NegativeNormalization(f"support intercept alpha = {alpha:.3e} is not positive")
    slack = alpha - float(np.trace(sum(grads)).real)
    if slack < -tol.eq * (1.0 + alpha):
        raise NegativeSlack(
            f"alpha = {alpha:.4g} below tr(sum G_i) = {alpha - slack:.4g}; "
            "no PSD completion with the required trace exists"
        )

    b0 = herm_part(fa @ vv) - sum(herm_part(g @ (ai - eye)) for g, ai in zip(grads, a))
    pencil = pencil_new([b0] + grads, tol, margins)

    # trace bound from the all-c2 scalar value
    f_c2 = float(fn(tuple(np.array([[c2]], dtype=complex) for _ in range(fn.arity)))[0, 0].real)
    trace_bound = f_c2 / min(1.0, c1)

    gate = -max(1e-8, 10 * tol.psd)
    per_size = max(validation_samples // 2, 1)
    # the scalar grid: 9 points per slot on the interval, with Y = F(x)
    pts = np.linspace(c1, c2, 9)
    grid = np.stack(np.meshgrid(*([pts] * fn.arity)), axis=-1).reshape(-1, fn.arity)
    scalars = tuple(grid[:, i].reshape(-1, 1, 1).astype(complex) for i in range(fn.arity))
    # the graph samples: per_size draws of X at each of sizes n and 2n, with Y = F(X)
    draws = [draw(rng, per_size * fn.arity, spd_plan(ns, c1, c2)) for ns in (n, 2 * n)]
    support_margin = min(float(np.min(_graph_margins(fn, b0, grads, v, *zl))) for zl in draws)
    scalar_margin = float(np.min(min_eig(_support_eval(b0, grads, v, fn(scalars), scalars))))
    if not scalar_margin >= gate:
        raise SupportViolated(f"the pencil fails the scalar grid: margin {scalar_margin:.3e}")
    if not support_margin >= gate:
        raise SupportViolated(f"the pencil fails on the sampled graph: margin {support_margin:.3e}")
    return SupportCertificate(
        function=fn.name,
        base_point=a,
        v=v,
        pencil=pencil,
        c=alpha,
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
    """Recover F(A)v from the certificate: its representation R at the base point.

    ``value_op`` is R(A), the whole Schur complement of ``cert.rep``'s pencil
    at A keeping span(v) (x) I (its ``core``, not read in the state), and
    ``value`` is R(A)v.  The residual is the tightness defect
    sqrt|v* R(A) v - c - sum tr G_i (A_i - I)|, computable from the
    certificate alone.  Values are trustworthy when the residual is small.
    """
    a, v = cert.base_point, cert.v
    value_op = herm_part(cert.rep.core(tol).evaluate(a))
    excess = float((np.conj(v) @ value_op @ v).real) - (cert.c + _tangent(cert.gradients, a))
    return ReconstructionResult(value=value_op @ v, residual=float(np.sqrt(abs(excess))), value_op=value_op)


# ---------------------------------------------------------------------------
# pencil representations


@dataclass(frozen=True)
class PencilRepresentation:
    """Pencil + pivot + finite-dimensional state realizing a free function.

    The state is a PSD trace-one density matrix T on the coefficient space,
    checked by ``matcore.check_args`` before its size, PSD and trace; the
    conditional expectation (w (x) I) acts as the partial trace of
    (T (x) I) against the coefficient tensor factor.  ``fn`` is the realized
    function as a ``FreeFn``, declared operator monotone and concave, as is
    every function with a pencil representation.
    """

    pencil: LinearPencil
    pivot: PivotSubspace
    state: np.ndarray
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        (state,) = check_args((self.state,), 1, "PencilRepresentation state")
        state = herm_part(np.asarray(state, dtype=complex))
        if state.shape != (self.pencil.size, self.pencil.size):
            raise DimensionMismatch("state must act on the coefficient space")
        require_psd(state, NotPSD, "the state", DEFAULT_TOL)
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

    The tuple takes ``matcore.check_args``, the check of every ``FreeFn``:
    components are stacked ``(..., n, n)`` and the output has one value per
    member.  A member that is not positive definite then raises
    DomainViolation.
    """
    xs = check_args(x, rep.arity, "rep_eval")
    if any(np.any(min_eig_above(xi, 0.0) <= 0) for xi in xs):
        raise DomainViolation("representation arguments must be positive definite")
    return herm_part(rep.core(tol).evaluate(xs, state=rep.state))


def rep_eval_complex(
    rep: PencilRepresentation, x: MatTuple, tol: Tolerances = DEFAULT_TOL
) -> np.ndarray:
    """Analytic continuation of the representation into the half-spaces.

    Takes stacked tuples as ``rep_eval`` does, checked by the pencil
    evaluation's ``matcore.check_args`` (``pencil.pencil_arguments``).
    Every member must lie in the right or upper operator poly-halfspace
    (else DomainViolation); the certificates and the output check
    (HalfPlaneViolated) are ``SchurCore.evaluate``'s.
    """
    return rep.core(tol).evaluate(x, state=rep.state, halfspace=True)


# ---------------------------------------------------------------------------
# direct-sum representations from base points


@dataclass(frozen=True)
class DirectSumRepresentation:
    """One certificate at the block-diagonal tuple of J base points, and its residuals.

    ``rep`` is the certificate's own representation, exact on every
    F(A_j) v_j up to ``residuals[j]``.
    """

    certificate: SupportCertificate
    residuals: tuple[float, ...]

    @property
    def rep(self) -> PencilRepresentation:
        return self.certificate.rep


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
    vector (1/sqrt J) (+) v_j and takes a single supporting certificate
    there; its representation (``SupportCertificate.rep``, tagged
    ``direct_sum`` in ``meta``) is the result.  The reconstruction identity
    splits blockwise, so the representation reproduces F(A_j) v_j for every
    j; each residual must be within ``_DIRECT_SUM_GATE``
    (1 + ||F(A_j) v_j||) before it is returned.  Every point is checked
    against ``fn``'s arity first (ArityMismatch).
    """
    if not points:
        raise BadConfig("need at least one base point")
    pts = [fn._args(tuple(a_j)) for a_j, _ in points]
    vs = [unit_vector(v_j) for _, v_j in points]  # each base vector is checked before any evaluation
    if len({a_j[0].shape[-1] for a_j in pts} | {v.size for v in vs}) > 1:
        raise DimensionMismatch("all base points and vectors must share one dimension")
    xs = tuple(np.stack(x) for x in zip(*pts))
    w = unit_vector(np.concatenate([np.asarray(vj, dtype=complex).reshape(-1) for _, vj in points]))

    cert = support_pencil(fn, tuple(block_diag(*x) for x in xs), w, interval, validation_samples, seed, tol)
    cert.rep.meta.update(kind="direct_sum", points=len(points))
    vs = np.stack(vs)[..., None]
    lhs = herm_part(fn(xs)) @ vs
    residuals = fro_norm(rep_eval(cert.rep, xs, tol) @ vs - lhs)
    if not np.all(residuals <= _DIRECT_SUM_GATE * (1.0 + fro_norm(lhs))):
        raise VerificationFailed(
            f"direct-sum representation misses F(A_j)v_j by {np.max(residuals):.3e}"
        )
    return DirectSumRepresentation(certificate=cert, residuals=tuple(map(float, residuals)))


# ---------------------------------------------------------------------------
# quadrature representations for one-variable functions


def _quad_rational_weights(
    name: str, p: float | None, nodes: int, interval: tuple[float, float]
) -> tuple[np.ndarray, np.ndarray]:
    """Nodes lam_r and weights w_r of f(x) ~ sum w_r lam_r x / (lam_r + x).

    log1p = int_0^1 x/(1+ux) du takes Gauss-Legendre in u = 1/lam.  For the
    power family lam = c (1+t)/(1-t), c = sqrt(c1 c2), turns the Cauchy
    integral x^p = (sin pi p / pi) int_0^inf lam^(p-1) x/(lam+x) dlam into a
    Gauss-Jacobi integral, alpha = -p and beta = p - 1, of
    g_x(t) = 2 (x/c) / ((1+t) + (x/c)(1-t)), which is analytic on [-1, 1], so
    the rule converges geometrically.  One ``eigh`` of the Jacobi matrix gives
    it (Golub-Welsch); as alpha + beta = -1 the first off-diagonal entry, 0/0
    in the general formula, is sqrt(2p(1-p)), and mu0 = pi / sin(pi p) cancels
    the prefactor.  Every even derivative of g_x and of x/(1+ux) is positive,
    so the Gauss error is positive: both rules lie below f on all of (0, inf).
    """
    if name == "log1p":
        u, wts = np.polynomial.legendre.leggauss(nodes)
        return 2.0 / (u + 1.0), 0.5 * wts
    if name == "sqrt":
        p = 0.5
    if p is None or not (0.0 < p < 1.0):
        raise QuadratureInaccurate("quadrature supports sqrt, log1p, and pow with p in (0,1)")
    a, b = -p, p - 1.0
    k = np.arange(1, nodes)
    diag = np.concatenate([[b - a], (a - b) / (4.0 * k**2 - 1.0)])
    off = np.sqrt((k + a) * (k + b)) / (2.0 * k - 1.0)
    off[0] = np.sqrt(2.0 * p * (1.0 - p))
    t, v = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    c = np.sqrt(interval[0] * interval[1])
    return c * (1.0 + t) / (1.0 - t), 2.0 * c ** (p - 1.0) * v[0] ** 2 / (1.0 + t)


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
    complement of the 2 x 2 cell [[lam, lam], [lam, x + lam]]; the N cells
    are assembled block-diagonally into a pencil of size 2N, the state is
    uniform on the pivot slots, and the quadrature weights are folded into
    per-cell scalings.  The scalar accuracy is sampled at 100 equispaced
    points of the interval against the exact function, and must be within
    ``target`` before the representation is returned.
    """
    if nodes < 4:
        raise QuadratureInaccurate("need at least four quadrature nodes")
    fn = lift_scalar(name, p)
    lam, wts = _quad_rational_weights(name, p, nodes, interval)
    if np.any(wts <= 0):
        raise QuadratureInaccurate("quadrature produced nonpositive weights")

    kdim, u_weight = 2 * lam.size, 1.0 / lam.size
    gamma = (wts / u_weight)[:, None, None]
    e22 = np.diag([0.0, 1.0])  # cell r: gamma_r (lam_r 1 1* + e22) in B_0, gamma_r e22 in B_1
    b0_mat = block_diag(*(gamma * (lam[:, None, None] + e22)))
    b1_mat = block_diag(*(gamma * e22))
    pivot_cols = list(range(0, kdim, 2))  # each cell's first slot
    state = np.zeros(kdim)
    state[pivot_cols] = u_weight

    rep = PencilRepresentation(
        pencil=pencil_new([b0_mat, b1_mat], tol),
        pivot=PivotSubspace.from_indices(kdim, pivot_cols),
        state=np.diag(state),
        meta={"kind": "quadrature", "function": fn.name, "nodes": int(lam.size)},
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
