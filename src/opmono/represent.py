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
from .freefun import FreeFn, _eigh, lift_scalar
from .matcore import (DEFAULT_TOL, Tolerances, block_diag, check_args, check_interval, dagger, eig_rounding,
                      exact_blocks, fro_norm, herm_part, is_count, min_eig, require_psd, unit_vector)
from .pencil import LinearPencil, kron_sum, pencil_new
from .sampling import draw, finish_frame, frame_plan, from_frame, generator, slots
from .schur import PivotSubspace, SchurCore, shared_core

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
    (``_graph_margins``).  Where ``FreeFn._declared_at``'s rule reads the
    declaration it is a certified lower bound from n x n blocks on the
    rule's s: for a lift, real blocks on each sample's spectrum in the base
    point's phased eigenbasis, below the smallest eigenvalue by its
    rounding allowances (``_lift_margins``); for a two-argument mean,
    blocks on the spectrum of M = X_1^{-1/2} X_2 X_1^{-1/2}, below the
    smallest eigenvalue by its rounding allowances
    (``_congruence_margins``), or by up to a factor cond(X_1) where that
    eigenvalue is positive.  A sample whose declared bound falls below the
    validation gate, and every other sample, takes the smallest eigenvalue
    of the whole pencil.  The certificate is a pencil representation of an
    upper bound of F (``rep``).
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
    samples: int
    seed: int

    @property
    def trace_slack(self) -> float:
        """``trace_bound`` - tr(B_0): how far the trace normalization stays below its bound."""
        return self.trace_bound - float(np.trace(self.pencil.b0).real)

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


def _graph_margins(fn: FreeFn, b0, grads, v, u, lam, basis=None, gate=-np.inf) -> np.ndarray:
    """Per-sample lower bounds on lambda_min L(F(X), X), X = from_frame(u, lam).

    The samples are frames (``sampling.frame_plan``): X_1 = diag(lam_1),
    and (I (x) U)* L(Y, X) (I (x) U) = L(U* Y U, U* X U) for a unitary U,
    so a free function's margins are those of Haar-rotated samples.  L
    decreases in Y, so the graph is the worst hypograph member at X.
    Where ``FreeFn._declared_at`` reads the declaration at the samples, L
    splits into n x n blocks on its s, read without evaluating F(X).  A
    lift's s is the drawn spectrum: F(X) = diag(f(lam)) at X = diag(lam),
    so L is the direct sum of M_j = B_0 + (lam_j - 1) G - f(lam_j) vv*,
    bounded from real blocks in the phased eigenbasis of the base point,
    whose eigenvectors ``basis`` holds (``_lift_margins``).  A two-argument
    mean's s is the spectrum w of M = X_1^{-1/2} X_2 X_1^{-1/2} (one
    ``eigvalsh`` a stack, and no ``cholesky``, inverse, product or
    eigenvectors), and lambda_min L is bounded from blocks on w
    (``_congruence_margins``).  Either bound lies below lambda_min L by its
    rounding allowances.  A sample whose declared bound falls below
    ``gate`` (``support_pencil``'s) takes lambda_min L exactly.  Every
    other function, and a declared one where the rule gives None, takes
    lambda_min L at the evaluated F(X) over the whole (n ns)^2 pencil.
    """
    xs = slots(from_frame(u, lam), fn.arity)
    declared = fn._declared_at(lam, xs[1] if fn.arity == 2 else None)
    if declared is None:
        return _full_margins(fn, b0, grads, v, xs)
    s, d = declared
    bound = (_lift_margins(b0, grads[0], v, basis, s, d) if fn.arity == 1
             else _congruence_margins(b0, grads, v, s, d, lam[::2]))
    low = ~(bound >= gate)
    if np.any(low):
        bound[low] = _full_margins(fn, b0, grads, v, tuple(x[low] for x in xs))
    return bound


def _full_margins(fn: FreeFn, b0, grads, v, xs) -> np.ndarray:
    """lambda_min L(F(X), X) over the whole (n ns)^2 pencil at the sample tuple X, F(X) evaluated."""
    return min_eig(_support_eval(b0, grads, v, herm_part(fn(xs)), xs))


def _lift_margins(b0, g, v, basis, lam, d) -> np.ndarray:
    """Lower bounds on lambda_min of M_j = B_0 + (lam_j - 1) G - d_j vv*, d = f(lam), from real blocks.

    At A = U Lambda U* the exact adjoint (``freefun._loewner_vgrad``) is
    G = U (Phi o r r*) U*, r = U* v and Phi the Loewner matrix of f on
    Lambda (Daleckii & Krein 1965; Bhatia, *Matrix Analysis*, ch. V).  In
    the phased eigenbasis W = U diag(r / |r|) (phase 1 where r_i = 0) the
    matrices C_0 = B_0, C_1 = G and C_2 = vv* are therefore real, and
    W* M_j W = sum_k c_k W* C_k W with c = (1, lam_j - 1, -d_j).  So each
    block R_j = sum_k c_k R_k is formed from the real parts R_k of the
    rotated C_k, and a stack takes one float64 ``eigvalsh``.  The bound is
    sound for any ``basis`` U and tight where the rotated C_k are real:
    with s = sum_k |c_k| ||C_k||_F it takes off

    - the imaginary parts S_k: for H = R + i S, lambda_min H >=
      lambda_min R - ||S||_2 (Weyl), and ||S||_2 <= sum_k |c_k| ||S_k||_F;
    - W's unitarity defect, 2 delta s, delta = ||fl(W* W) - I||_F: by
      Ostrowski (Horn & Johnson, *Matrix Analysis*, Thm 4.5.9)
      lambda_min W* M W = theta lambda_min M with |theta - 1| <=
      ||W* W - I||_2, and |lambda_min W* M W| <= (1 + delta) s, so for
      delta <= 1/8 lambda_min M >= lambda_min W* M W - (9/7) delta s.  A
      basis with a larger delta gives -inf;
    - rounding, ``matcore.eig_rounding(n, s + ||R_j||_F)``: ``eigvalsh``
      of R_j, ``eig_rounding(n, ||R_j||_F)``, and the rest within
      24 n^2 eps s.  The rotation fl(fl(W* C_k) W) and its Hermitian
      part lie within 2 sqrt(2) gamma_{n+2} ||W||_F^2 ||C_k||_F +
      eps ||C_k||_F <= 11 n^2 eps ||C_k||_F of W* C_k W (Higham, *Accuracy
      and Stability of Numerical Algorithms*, sec. 3.6); fl(W* W) moves
      delta by 5 n^2 eps, so the bound by 6.5 n^2 eps s; forming R_j,
      lam_j - 1 included, 5 eps s; the norms ||S_k||_F, 1.5 n^2 eps s.

    d is taken as the graph value, as ``_congruence_margins`` takes f(w).
    """
    n = v.size
    r = dagger(basis) @ v
    mag = np.abs(r)
    w = basis * np.divide(r, mag, out=np.ones_like(r), where=mag > 0)
    defect = fro_norm(dagger(w) @ w - np.eye(n))
    if not defect <= 0.125:
        return np.full(lam.shape[:-1], -np.inf)
    mats = np.stack([b0, g, np.outer(v, np.conj(v))])
    rot = herm_part(dagger(w) @ mats @ w)
    re, imag, norms = rot.real, fro_norm(rot.imag), fro_norm(mats)
    c1 = lam - 1.0
    a1, a2 = np.abs(c1), np.abs(d)
    scale = norms[0] + a1 * norms[1] + a2 * norms[2]
    blocks = re[0] + c1[..., None, None] * re[1] - d[..., None, None] * re[2]
    finite = scale <= 1e300  # a block's entries are at most about s, so these blocks are finite
    if not finite.all():
        blocks[~finite] = np.eye(n)
    mu = np.where(finite, np.linalg.eigvalsh(blocks)[..., 0], -np.inf)
    weyl = imag[0] + a1 * imag[1] + a2 * imag[2]
    return np.min(mu - weyl - 2 * defect * scale - eig_rounding(n, scale + fro_norm(blocks)), axis=-1)


def _congruence_margins(b0, grads, v, w, d, lam1) -> np.ndarray:
    """Certified lower bounds on lambda_min L at the graph points (C C*, C W C*, C f(W) C*), f(w) = d.

    W = diag(w) is the spectrum of M = D^{-1/2} X_2 D^{-1/2} that
    ``FreeFn._declared_at`` forms entrywise from the drawn X_1 =
    D = diag(lam1): ``eigvalsh`` (or, for a wide member, the SVD of
    D^{-1/2} L_2) returns the exact spectrum of a matrix M' within rounding
    of the computed M.  With U exact eigenvectors of M', C = D^{1/2} U, so
    C C* = X_1 exactly and X_2' = C W C* = D^{1/2} M' D^{1/2} lies within
    rounding of the drawn X_2; a Kubo-Ando mean's congruence invariance,
    F(S A S*) = S F(A) S* (Kubo & Ando 1980), makes F(X') = C f(W) C*.  So
    the points certified are exact graph points within rounding of the
    drawn X, and neither C nor U is ever formed.  With E = B_0 - G_1 - G_2 and
    N(w) = G_1 + w G_2 - f(w) vv*,

        L = E (x) I + (I (x) C) [sum_j N(w_j) (x) e_j e_j*] (I (x) C)*,

    so lambda_min L >= lambda_min E + theta min_j lambda_min N(w_j)
    (Weyl), with theta in sigma(C)^2 = spec(X_1) (Ostrowski, Horn & Johnson,
    *Matrix Analysis*, Thm 4.5.9): its least value where the minimum is
    >= 0, its largest where not.  Differentiating tr(vv* F(S A S*)) at
    S = I along any K and keeping the K-linear part gives
    sum G_i A_i = vv* F(A), so B_0 = G_1 + G_2 and E is zero but for
    rounding.  Each rounding allowance is taken off:

    - a block's lambda_min: ``matcore.eig_rounding(n, ||G_1||_F + w
      ||G_2||_F + |f(w)|)``, the rounding of forming N(w) from G_i, vv*
      and f(w), and of ``eigvalsh``;
    - theta: the drawn spectrum ``lam1`` of X_1, widened by
      ``eig_rounding(ns, lambda_max)``, which covers C C* against the drawn X_1.
      Since C C* = X_1 = diag(lam1) exactly, the widening is slack here; it
      is kept so that the bound stays sound for any C whose C C* lies that
      close to X_1;
    - lambda_min E: ``eig_rounding(n, ||E||_F)`` + 4 eps (||B_0||_F +
      ||G_1||_F + ||G_2||_F), the rounding of ``eigvalsh`` on the computed
      E and of its two differences.
    """
    n, ns = v.size, w.shape[-1]
    g1, g2 = grads
    norms = fro_norm(np.stack([b0, g1, g2]))
    blocks = g1 + w[..., None, None] * g2 - d[..., None, None] * np.outer(v, np.conj(v))
    mu = np.min(min_eig(blocks) - eig_rounding(n, norms[1] + w * norms[2] + np.abs(d)), axis=-1)
    top = np.max(lam1, axis=-1)
    spread = eig_rounding(ns, top)
    theta = np.where(mu >= 0, np.maximum(np.min(lam1, axis=-1) - spread, 0.0), top + spread)
    e = b0 - g1 - g2
    return min_eig(e) - eig_rounding(n, fro_norm(e)) - 4 * np.finfo(float).eps * np.sum(norms) + theta * mu


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
    ``fn.gradient(A, vv*)``, the function's exact adjoint (UnknownFunction
    for a function without one).  The leading coefficient is the
    first-order matched completion

        B_0 = Herm(F(A) vv*) - sum Herm(G_i (A_i - I)),

    whose trace automatically equals the affine intercept.  Each G_i must be
    PSD (else GradientNotPSD), and ``pencil_new`` validates the pencil
    [B_0, G_1, ..., G_k], reusing the margins of the G_i: a B_0 that is not
    PSD raises CoefficientNotPSD, one that does not dominate sum G_i
    DominanceViolated.  The pencil must then stay positive on a scalar grid
    and on random graph points at sizes n and 2n (``_graph_margins``: n x n
    blocks where ``FreeFn._declared_at``'s rule reads the declaration, a
    lift's real in the phased eigenbasis of A that one ``freefun._eigh``
    gives; the whole pencil elsewhere and for each declared sample whose
    bound falls below the gate) before a certificate is issued, else
    SupportViolated.

    A request is refused with BadConfig before any evaluation unless ``fn``
    is declared operator monotone (``FreeFn.monotone``), the interval passes
    ``matcore.check_interval``, ``validation_samples`` is an integer of at
    least 1 (``matcore.is_count``, so neither a float nor a bool), and the
    seed passes ``sampling.generator``.  The certificate stores the seed and
    its sample count as ``int``, so a numpy integer serializes as its value.
    """
    if not fn.monotone:
        raise BadConfig(f"{fn.name} is not declared operator monotone")
    check_interval(interval)
    if not is_count(validation_samples, 1):
        raise BadConfig(f"validation_samples must be at least 1 and an integer, got {validation_samples!r}")
    rng = generator(seed)
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
    draws = [finish_frame(fn.arity, draw(rng, per_size, frame_plan(ns, c1, c2, fn.arity))) for ns in (n, 2 * n)]
    # a declared lift's blocks are real in the base point's phased eigenbasis (_lift_margins)
    basis = _eigh(a[0])[1] if fn.arity == 1 and fn.scalar is not None else None
    support_margin = min(float(np.min(_graph_margins(fn, b0, grads, v, u, lam, basis, gate))) for u, lam, _ in draws)
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
        samples=int(2 * per_size),
        seed=int(seed),
    )


# ---------------------------------------------------------------------------
# reconstruction at the base point


@dataclass(frozen=True)
class ReconstructionResult:
    value: np.ndarray
    residual: float
    value_op: np.ndarray


def reconstruct(cert: SupportCertificate) -> ReconstructionResult:
    """Recover F(A)v from the certificate: its representation R at the base point.

    ``value_op`` is R(A), the whole Schur complement of ``cert.rep``'s pencil
    at A keeping span(v) (x) I (its ``core``, not read in the state), and
    ``value`` is R(A)v.  The residual is the tightness defect
    sqrt|v* R(A) v - c - sum tr G_i (A_i - I)|, computable from the
    certificate alone.  Values are trustworthy when the residual is small.
    The complement is not certified (``SchurCore.evaluate`` without
    ``tol``) and no floor is compared, so no tolerance is taken.
    """
    a, v = cert.base_point, cert.v
    value_op = herm_part(cert.rep.core.evaluate(a))
    excess = float((np.conj(v) @ value_op @ v).real) - (cert.c + _tangent(cert.gradients, a))
    return ReconstructionResult(value=value_op @ v, residual=float(np.sqrt(abs(excess))), value_op=value_op)


# ---------------------------------------------------------------------------
# pencil representations


@dataclass(frozen=True)
class PencilRepresentation:
    """Pencil + pivot + finite-dimensional state realizing a free function.

    The state is a PSD trace-one density matrix T on the coefficient space,
    checked by ``matcore.check_args`` before its size, PSD (block by block,
    on the components of its own nonzero pattern) and trace; the
    conditional expectation (w (x) I) acts as the partial trace of
    (T (x) I) against the coefficient tensor factor.  ``fn`` is the realized
    function as a ``FreeFn``, declared operator monotone and concave, as is
    every function with a pencil representation.

    The state, like the pencil's coefficients and the pivot basis, is kept
    as a read-only array of its own: the caller's arrays stay writable, and
    an in-place edit raises ValueError.  So its one ``core`` computes the
    state's pivot-block weights once (``SchurCore.state_weights``) and
    reuses them on every evaluation, at any tolerances.
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
        require_psd(state, NotPSD, "the state", DEFAULT_TOL, exact_blocks((state,)))
        if abs(float(np.trace(state).real) - 1.0) > DEFAULT_TOL.eq:
            raise DomainViolation("state must have unit trace")
        if len(self.pivot.basis) != self.pencil.size:
            raise DimensionMismatch("pivot must live on the coefficient space")
        state.setflags(write=False)  # herm_part's fresh array, so the caller's stays writable
        object.__setattr__(self, "state", state)

    @property
    def arity(self) -> int:
        return self.pencil.arity

    @cached_property
    def fn(self) -> FreeFn:
        """``rep_eval``, continued by ``rep_eval_complex``, with the exact adjoint ``SchurCore.adjoint`` as ``vgrad``.

        The adjoint takes ``rep_eval``'s positive-definite check first.
        """
        name = f"{self.meta.get('function', 'pencil')}-rep"
        return FreeFn(name, self.arity, partial(rep_eval, self), partial(rep_eval_complex, self),
                      lambda xs, seed: self.core.adjoint(_positive(self, xs), self.state, seed))

    @cached_property
    def core(self) -> SchurCore:
        """The pencil partitioned against the pivot, held once (``schur.shared_core``)."""
        return shared_core(self.pencil, self.pivot)


def rep_eval(rep: PencilRepresentation, x: MatTuple) -> np.ndarray:
    """Evaluate the representation at positive definite Hermitian tuples.

    The tuple takes ``matcore.check_args``, the check of every ``FreeFn``:
    components are stacked ``(..., n, n)`` and the output has one value per
    member.  A member whose least eigenvalue is not above 0 then raises
    DomainViolation.  Neither that check nor the traced complement
    (``SchurCore.evaluate`` without ``tol``) compares a floor, so no
    tolerance is taken.
    """
    return herm_part(rep.core.evaluate(_positive(rep, x), state=rep.state))


def _positive(rep: PencilRepresentation, x: MatTuple) -> MatTuple:
    """``x`` after ``matcore.check_args``, each member positive definite (else DomainViolation)."""
    xs = check_args(x, rep.arity, "rep_eval")
    if any(np.any(min_eig(xi) <= 0) for xi in xs):
        raise DomainViolation("representation arguments must be positive definite")
    return xs


def rep_eval_complex(
    rep: PencilRepresentation, x: MatTuple, tol: Tolerances = DEFAULT_TOL
) -> np.ndarray:
    """Analytic continuation of the representation into the half-spaces.

    Takes stacked tuples as ``rep_eval`` does, checked by the pencil
    evaluation's ``matcore.check_args`` (``pencil.pencil_arguments``).
    Every member must lie in the right or upper operator poly-halfspace
    (else DomainViolation); the certificates and the output check
    (HalfPlaneViolated) are ``SchurCore.evaluate``'s, at the floors of
    ``tol``.
    """
    return rep.core.evaluate(x, state=rep.state, tol=tol)


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
    validation_samples: int = 100,
    seed: int = 0,
    tol: Tolerances = DEFAULT_TOL,
) -> DirectSumRepresentation:
    """Representation exact on finitely many directions F(A_j) v_j.

    Stacks the points into one block-diagonal tuple with the balanced
    vector (1/sqrt J) (+) v_j / ||v_j||, each block of norm 1/sqrt J
    whatever the norms of the v_j, and takes a single supporting certificate
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
    w = unit_vector(np.concatenate(vs))

    cert = support_pencil(fn, tuple(block_diag(*x) for x in xs), w, validation_samples=validation_samples, seed=seed,
                          tol=tol)
    cert.rep.meta.update(kind="direct_sum", points=len(points))
    vs = np.stack(vs)[..., None]
    lhs = herm_part(fn(xs)) @ vs
    residuals = fro_norm(rep_eval(cert.rep, xs) @ vs - lhs)
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
    ``target`` before the representation is returned.  ``target`` must be
    finite and positive (BadConfig): a NaN one would pass every error.  The
    interval must pass ``matcore.check_interval`` (BadConfig), so no rule is
    formed on a spectrum that reaches 0 or infinity.  ``nodes`` must be an
    integer (``matcore.is_count``: a float such as 8.5 or a bool is
    BadConfig, not rounded), and below 4 it is QuadratureInaccurate.
    """
    if not 0 < target < np.inf:
        raise BadConfig("quadrature target must be finite and positive")
    check_interval(interval)
    if not is_count(nodes, 1):
        raise BadConfig(f"nodes must be a positive integer, got {nodes!r}")
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
    approx = rep_eval(rep, (xs,))[:, 0, 0].real
    exact = fn(xs)[:, 0, 0].real
    rel = float(np.max(np.abs(approx - exact) / np.abs(exact)))
    if rel > target:
        raise QuadratureInaccurate(
            f"scalar validation error {rel:.3e} exceeds the requested {target:.1e}"
        )
    rep.meta["scalar_error"] = rel
    return rep
