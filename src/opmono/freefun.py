"""Free-function catalogue.

Concrete noncommutative functions used as certification subjects (``cert``,
whose ``nc_axiom_check`` tests the free-function axioms themselves) and as
inputs to the representation machinery: one-variable functional-calculus
lifts, multivariable operator means (harmonic, arithmetic, weighted
geometric, power means and the Karcher mean), Moebius transformations, and
two deliberately broken negative controls.

Evaluators are batched: each accepts a tuple of stacked Hermitian arguments
``(..., n, n)`` and broadcasts over the leading axes.  A lift and every
two-argument mean but the harmonic, arithmetic and P_1 ones is built from
its representing function (f, f') alone (``_declared_fn``), its evaluator
and its exact adjoint (``_loewner_vgrad``, the adjoint of every declared
function but P_1) included; every two-argument mean but the arithmetic
one declares f (``FreeFn.scalar``; ``_pair_function``, the harmonic
mean's at t = -1).

The power means P_t, t in (0, 1], and the Karcher mean, their t = 0
member, are one family at every arity: one mean (``_mean``), whose
three or more arguments solve sum w_i f(Z^{-1/2} X_i Z^{-1/2}) = f(1) I
with f from ``_family(t)`` (x^t, or log at t = 0) by one step
(``_mean_gradient``), one loop (``_fixed_point``, all batch elements in
lockstep) and one implicit adjoint (``_implicit_vgrad``).  P_1 is the
arithmetic mean sum w_i X_i at every arity, returned in closed form with
the adjoint w_i W; it keeps the family's domain, so each argument is
still checked by its Cholesky factor.

Every mean is invariant under congruence, so none needs a square root.  A
Kubo-Ando mean is A^{1/2} f(M) A^{1/2}, M = A^{-1/2} B A^{-1/2} (Kubo & Ando
1980).  Any factor A = L L* is L = A^{1/2} Q with Q unitary, so
L^{-1} B L^{-*} = Q* M Q and L f(Q* M Q) L* = A^{1/2} f(M) A^{1/2}.
Likewise the k >= 3 equation's S = sum w_i f(M_i) only becomes Q* S Q, and
the harmonic mean's X^{-1} is L^{-*} L^{-1}.  So each takes the Cholesky
factor (``_factor``): one ``cholesky`` where a square root costs an ``eigh``.

Positive definiteness is read from the factorizations an evaluator makes
anyway: a stack has a Cholesky factor exactly when it is positive definite,
and for A > 0 the eigenvalues of L^{-1} B L^{-*} are positive exactly when
B > 0 (Sylvester's law of inertia).  That is one ``eigh`` per lift, one
``cholesky`` per argument of the harmonic mean and of P_1, and one
``cholesky`` of A (or of the iterate Z) and one ``eigh`` of each
L^{-1} X L^{-*} per other mean of the family.  One routine (``_spectrum``)
decomposes every such M: a member with an eigenvalue that is not positive
or too ill-conditioned for ``eigh`` takes the ``svd`` of L^{-1} L_X, whose
Cholesky factor L_X then checks X.  Where A is diagonal, as the first
member of every tester frame and graph sample is, M = A^{-1/2} B A^{-1/2}
is formed entrywise and only its spectrum taken (``_frame_spectrum``: one
``eigvalsh``, singular values for the wide members).  An error's minimum
eigenvalue is computed only once a check has failed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Callable

import numpy as np

from .errors import (
    BadConfig,
    DimensionMismatch,
    DomainViolation,
    NoConvergence,
    NotPositiveDefinite,
    OpmonoError,
    PoleHit,
    SingularArgument,
    StepUnderflow,
    UnknownFunction,
)
from .gradients import dk_map, loewner_matrix, solve_linear_map
from .matcore import (
    DEFAULT_TOL,
    RANK_CUT,
    Tolerances,
    check_args,
    dagger,
    fro_norm,
    herm_part,
    min_eig,
)

__all__ = [
    "FreeFn",
    "MobiusMap",
    "lift_scalar",
    "harmonic_mean",
    "arithmetic_mean",
    "geometric_mean_2",
    "weighted_geo",
    "power_mean",
    "power_mean_fn",
    "karcher_mean",
    "karcher_mean_fn",
    "mobius_apply",
    "mobius_fn",
    "frechet_derivative",
    "frechet_many",
    "resolve_function",
    "CATALOGUE_IDS",
]

MatTuple = tuple[np.ndarray, ...]


# ---------------------------------------------------------------------------
# batched Hermitian helpers


def _eigh(a: np.ndarray, what: str | None = None) -> tuple[np.ndarray, np.ndarray]:
    """eigh of the Hermitian part; given ``what``, the stack must also be positive definite.

    The check reads the eigenvalues the decomposition returns, so it costs no
    extra kernel call.  A stack whose Hermitian part is not finite, as a
    finite stack's can be where it overflows, raises before ``eigh`` sees
    it: NotPositiveDefinite given ``what``, else DomainViolation.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        h = herm_part(a)
    if not np.isfinite(h).all():
        raise (DomainViolation("argument has a Hermitian part that is not finite") if what is None
               else NotPositiveDefinite(f"{what} has minimum eigenvalue {-np.inf:.3e}"))
    w, u = np.linalg.eigh(h)
    if what is not None:
        lam = float(np.min(w[..., 0], initial=np.inf))
        if lam <= 0.0:
            raise NotPositiveDefinite(f"{what} has minimum eigenvalue {lam:.3e}")
    return w, u


def _eigh_fun(f: Callable[[np.ndarray], np.ndarray], a: np.ndarray, what: str | None = None) -> np.ndarray:
    """f(A) by one eigendecomposition; given ``what``, A must be positive definite."""
    w, u = _eigh(a, what)
    return (u * f(w)[..., None, :]) @ dagger(u)


def _cholesky(z: np.ndarray, what: str, error: type[OpmonoError] = NotPositiveDefinite) -> np.ndarray:
    """L with Herm(Z) = L L*, the Cholesky factor of a positive definite stack.

    A non-finite stack, or one with no Cholesky factor, raises ``error``
    with its minimum eigenvalue, which is computed only then.
    """
    h = herm_part(z)
    if np.isfinite(h).all():
        try:
            return np.linalg.cholesky(h)
        except np.linalg.LinAlgError:
            pass
    raise error(f"{what} has minimum eigenvalue {float(np.min(min_eig(h), initial=np.inf)):.3e}")


def _factor(z: np.ndarray, what: str, error: type[OpmonoError] = NotPositiveDefinite) -> tuple[np.ndarray, ...]:
    """(L, L^{-1}) with L from ``_cholesky``."""
    low = _cholesky(z, what, error)
    return low, np.linalg.inv(low)


# ---------------------------------------------------------------------------
# the FreeFn abstraction


@dataclass(frozen=True)
class FreeFn:
    """A concrete noncommutative function together with its declared property.

    ``evaluator`` maps a k-tuple of stacked Hermitian matrices to a stacked
    Hermitian result of the same dimension.  ``complex_evaluator``, when
    present, extends the function to non-Hermitian arguments.  ``vgrad``,
    when present, is the exact adjoint gradient: given one argument tuple
    and a Hermitian seed W it returns the matrices G_i representing the
    slot derivatives of X -> tr(W F(X)); ``gradient`` raises UnknownFunction
    without it, as ``eval_complex`` does without a complex evaluator.  A
    call, ``eval_complex`` and ``gradient`` check the arguments by
    ``matcore.check_args``, the check of every entry point that takes a
    matrix tuple, and hand them on as complex arrays.
    ``monotone`` is what the catalogue *claims*: F is operator monotone on
    the positive matrices, and so operator concave, as the paper's
    representation formula covers both as one class.  The cert module
    tests the claim, and ``represent.support_pencil`` refuses a function
    that does not make it.

    ``scalar`` = (f, f') declares the representing function f.  With one
    argument it says F(X) = U f(Lambda) U* for X = U Lambda U*, a lift of
    the scalar f; with two, F(A, B) = L f(M) L* for A = L L* and
    M = L^{-1} B L^{-*}, a Kubo-Ando mean.  The lifts and the two-argument
    power (t < 1), Karcher and geometric means are built from (f, f')
    alone (``_declared_fn``); the two-argument harmonic mean and P_1
    declare ``_pair_function(t, *w)`` (t = -1 and 1) beside their own
    evaluators.  Nothing else declares one.

    The declaration is read in place of the evaluator at a tester frame or
    a support-validation sample, whose first member is diag(lam_1), under
    one rule (``_declared_at``): f is declared, the arity is 1 or 2, every
    drawn eigenvalue and every entry of s is positive, and f is finite on
    s, the drawn spectrum for a lift and the spectrum of M = X_1^{-1/2}
    X_2 X_1^{-1/2} for a mean.  The testers (``cert``) and the support
    validation (``represent._graph_margins``) read f and its Loewner
    matrices (``_loewner``) on s; elsewhere the evaluator takes the points.
    So ``replace(fn, evaluator=...)`` with an evaluator that computes
    anything but the same F has to pass ``scalar=None``.
    """

    name: str
    arity: int
    evaluator: Callable[[MatTuple], np.ndarray]
    complex_evaluator: Callable[[MatTuple], np.ndarray] | None = None
    vgrad: Callable[[MatTuple, np.ndarray], list[np.ndarray]] | None = None
    monotone: bool = True
    scalar: tuple[Callable[[np.ndarray], np.ndarray], Callable[[np.ndarray], np.ndarray]] | None = None

    def _args(self, mats: tuple, one: bool = False) -> MatTuple:
        """This function's arguments as complex arrays, after ``matcore.check_args``; ``fn((A, B))`` is ``fn(A, B)``."""
        if len(mats) == 1 and isinstance(mats[0], (tuple, list)):
            mats = tuple(mats[0])
        return tuple(np.asarray(x, dtype=complex) for x in check_args(mats, self.arity, self.name, one))

    def _declared_at(self, lam: np.ndarray, x2: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray] | None:
        """(s, f(s)) at a frame (``sampling.from_frame``) of spectra ``lam`` where the one rule reads f, else None.

        A mean passes its frame's second members ``x2``; ``_frame_spectrum``
        forms its s, and its typed error for an X_2 that is not positive
        definite propagates.
        """
        if self.scalar is None or self.arity != (1 if x2 is None else 2) or not np.all(lam > 0):
            return None
        s = lam if x2 is None else _frame_spectrum(lam[::2], x2)
        if not np.all(s > 0):
            return None
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            d = self.scalar[0](s)
        return (s, d) if np.isfinite(d).all() else None

    def _loewner(self, s: np.ndarray) -> tuple[np.ndarray, ...]:
        """The Loewner matrices on ``_declared_at``'s s, one per slot: [Phi] for a lift, [Psi, Phi] for a mean."""
        return (loewner_matrix(s, *self.scalar),) if self.arity == 1 else _loewner_pair(s, *self.scalar)

    def __call__(self, *mats: np.ndarray) -> np.ndarray:
        return self.evaluator(self._args(mats))

    def eval_complex(self, *mats: np.ndarray) -> np.ndarray:
        if self.complex_evaluator is None:
            raise UnknownFunction(f"{self.name} has no complex evaluator")
        return self.complex_evaluator(self._args(mats))

    def gradient(self, xs: MatTuple, seed: np.ndarray) -> list[np.ndarray]:
        """The G_i of X -> tr(W F(X)) at one argument tuple (a stack is refused): ``vgrad``, or UnknownFunction."""
        xs = self._args(tuple(xs), one=True)
        if self.vgrad is None:
            raise UnknownFunction(f"{self.name} has no gradient")
        return self.vgrad(xs, seed)


# ---------------------------------------------------------------------------
# one-variable lifts


def _principal_matfun(f_scalar: Callable[[np.ndarray], np.ndarray]) -> Callable[[MatTuple], np.ndarray]:
    """Principal-branch matrix function through diagonalization X = V diag(w) V^{-1}.

    Adequate for the catalogue's complex probes, whose arguments are
    diagonalizable with spectra off the branch cut.  Rounding in V is
    amplified by up to cond(V), so a stack with some member whose
    cond(V) 2^-52 exceeds ``DEFAULT_TOL.eq`` (near-defective, as a Jordan
    block is) raises DomainViolation instead of returning a wrong value.
    """

    def apply(xs: MatTuple) -> np.ndarray:
        (x,) = xs
        w, v = np.linalg.eig(x)
        cond = np.max(np.linalg.cond(v), initial=0.0)
        if not cond * 2.0**-52 <= DEFAULT_TOL.eq:
            raise DomainViolation(f"argument is near-defective: eigenvector condition {cond:.3e}")
        return v @ ((f_scalar(w))[..., :, None] * np.linalg.inv(v))

    return apply


_SCALAR_LIFTS: dict[str, tuple[Callable, Callable, bool, bool]] = {
    # name: (f, f', positive definite arguments only, declared monotone); f also takes complex input
    "sqrt": (np.sqrt, lambda x: 0.5 / np.sqrt(x), True, True),
    "log1p": (np.log1p, lambda x: 1.0 / (1.0 + x), True, True),
    "identity": (lambda x: x, lambda x: np.ones_like(x), False, True),
    "xsq": (lambda x: x**2, lambda x: 2.0 * x, False, False),
}


def _loewner_pair(w: np.ndarray, f: Callable, fprime: Callable) -> tuple[np.ndarray, np.ndarray]:
    """[Psi, Phi] on M's spectrum w: slot 1's Loewner matrix, of the transpose x f(1/x) on 1/w, and slot 2's, of f."""
    psi = loewner_matrix(1.0 / w, lambda v: v * f(1.0 / v), lambda v: f(1.0 / v) - fprime(1.0 / v) / v)
    return psi, loewner_matrix(w, f, fprime)


def _loewner_vgrad(f: Callable, fprime: Callable, xs: MatTuple, seed: np.ndarray) -> list[np.ndarray]:
    """Exact adjoint of the lift or two-argument mean that (f, f') represents (``FreeFn.scalar``).

    Each derivative is a congruence of Loewner matrices, DF(X)[H] =
    C (sum_i Theta_i o C^{-1} H_i C^{-*}) C*, so slot i's G_i is
    P (Theta_i o C* W C) P* with P = C^{-*}.  A lift takes C = P = U from
    one ``eigh`` of X = U diag(lam) U* and Theta = [Phi], which is
    ``dk_map``'s expression; a mean takes C = L U and P = L^{-*} U from
    ``_congruence_eig`` (one ``cholesky`` and one ``eigh``, its SVD
    fallback included) and Theta = ``_loewner_pair``.
    """
    if len(xs) == 1:
        w, c = _eigh(xs[0])
        p, thetas = c, (loewner_matrix(w, f, fprime),)
    else:
        c, linv, u, w = _congruence_eig(*xs)
        p, thetas = dagger(linv) @ u, _loewner_pair(w, f, fprime)
    cwc = dagger(c) @ seed @ c
    return [herm_part(p @ (theta * cwc) @ dagger(p)) for theta in thetas]


def _declared_fn(name: str, arity: int, f: Callable, fp: Callable, checked=True, monotone=True) -> FreeFn:
    """The FreeFn that (f, f') declares, its evaluator, continuation and adjoint all built from them.

    A lift evaluates U f(Lambda) U* by one ``eigh`` (positive definite
    arguments only when ``checked``) and continues by ``_principal_matfun``,
    a two-argument mean evaluates L f(M) L* (``_congruence_fun``); both take
    ``_loewner_vgrad``, and a lift is declared operator monotone if ``monotone``.
    """
    vgrad = partial(_loewner_vgrad, f, fp)
    if arity == 1:
        what = "argument" if checked else None
        return FreeFn(name, 1, lambda xs: _eigh_fun(f, xs[0], what), _principal_matfun(f), vgrad,
                      monotone=monotone, scalar=(f, fp))
    return FreeFn(name, 2, lambda xs: _congruence_fun(*xs, f), vgrad=vgrad, scalar=(f, fp))


def lift_scalar(name: str, p: float | None = None) -> FreeFn:
    """One-variable functional-calculus lift from the catalogue.

    Known names: sqrt, log1p, identity, xsq (the non-monotone control),
    and pow with exponent ``p`` in (0, 1), whose row is made for that ``p``.
    """
    row = _SCALAR_LIFTS.get(name)
    if name == "pow":
        if p is None or not (0.0 < p < 1.0):
            raise UnknownFunction("pow requires an exponent p in (0, 1)")
        name, row = f"pow:{p:g}", (lambda x: np.power(x, p), lambda x: p * np.power(x, p - 1), True, True)
    if row is None:
        raise UnknownFunction(f"no scalar lift named {name!r}")
    return _declared_fn(name, 1, *row)


def fake_trace_fn() -> FreeFn:
    """Negative control: X -> X + sin(tr X) I.

    Unitary equivariant but trace-coupled, so it breaks direct sums,
    monotonicity, and concavity.
    """

    def _ev(xs: MatTuple) -> np.ndarray:
        (x,) = xs
        n = x.shape[-1]
        t = np.trace(x, axis1=-2, axis2=-1).real
        return x + np.sin(t)[..., None, None] * np.eye(n)

    return FreeFn(name="faketrace", arity=1, evaluator=_ev, monotone=False)


# ---------------------------------------------------------------------------
# operator means

# the k >= 3 fixed point's residual floor (over t for the power mean) and its step cap
_KARCHER_RTOL = 1e-13
_MAX_ITER = 10_000


def _check_weights(weights: tuple[float, ...]) -> np.ndarray:
    """The weights as an array, one per argument of the mean they weigh; BadConfig unless positive with sum one.

    Both tests are written so that a NaN weight fails them.
    """
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size < 1 or not np.all(w > 0):
        raise BadConfig("weights must be positive")
    if not abs(w.sum() - 1.0) <= 1e-12:
        raise BadConfig("weights must sum to one")
    return w


def harmonic_mean(weights: tuple[float, ...]) -> FreeFn:
    """X -> (sum w_i X_i^{-1})^{-1}, with X_i^{-1} = L_i^{-*} L_i^{-1} from ``_factor``."""
    w = _check_weights(weights)

    def _inverses(xs: MatTuple) -> list[np.ndarray]:
        linvs = (_factor(xi, "harmonic mean argument", SingularArgument)[1] for xi in xs)
        return [dagger(linv) @ linv for linv in linvs]

    def _mean(inverses: list[np.ndarray]) -> np.ndarray:
        return herm_part(np.linalg.inv(sum(wi * xinv for wi, xinv in zip(w, inverses))))

    def _ev(xs: MatTuple) -> np.ndarray:
        return _mean(_inverses(xs))

    def _vgrad(xs: MatTuple, seed: np.ndarray) -> list[np.ndarray]:
        # D_i F[H] = w_i F X_i^{-1} H X_i^{-1} F, a congruence sandwich
        inverses = _inverses(xs)
        value = _mean(inverses)
        out = []
        for wi, xinv in zip(w, inverses):
            m = xinv @ value
            out.append(herm_part(wi * m @ seed @ dagger(m)))
        return out

    return FreeFn(name="harmonic", arity=w.size, evaluator=_ev, vgrad=_vgrad,
                  scalar=_pair_function(-1.0, *w) if w.size == 2 else None)


def _weighted_sum(xs: MatTuple, w: np.ndarray) -> np.ndarray:
    """Herm(sum w_i X_i)."""
    return herm_part(sum(wi * xi for wi, xi in zip(w, xs)))


def arithmetic_mean(weights: tuple[float, ...]) -> FreeFn:
    w = _check_weights(weights)
    return FreeFn(
        name="arithmetic",
        arity=w.size,
        evaluator=partial(_weighted_sum, w=w),
        vgrad=lambda xs, seed: [wi * seed for wi in w],
    )


# eigh resolves the smallest eigenvalue of M = L^{-1} X L^{-*} to a relative
# eps cond(M); past this cond(M), M = K K* with K = L^{-1} L_X, X = L_X L_X*,
# is decomposed by the SVD of K, to about eps sqrt(cond(M))
_EIGH_COND = 1e6


def _spectrum(m: np.ndarray, factor: Callable, vectors: bool = True) -> tuple[np.ndarray, ...]:
    """(w, U, wide) with Herm(M) = U diag(w) U*: one ``eigh``, or one ``eigvalsh`` and U None without ``vectors``.

    The one decomposition of every mean's M = K K*, K = L^{-1} L_X for
    M = L^{-1} X L^{-*} and X = L_X L_X*.  A member whose eigenvalues are not
    all positive or whose cond(M) exceeds ``_EIGH_COND`` is ``wide``: it
    takes w, and U, from the SVD of K (only the singular values without
    ``vectors``), with ``factor(wide)`` those members' K.  Forming K takes
    the Cholesky factor L_X, so X's own factor checks X (only rounding
    leaves M indefinite where L_X exists).  M must be finite: a caller
    whose X may not be checks X first.
    """
    h = herm_part(m)
    w, u = np.linalg.eigh(h) if vectors else (np.linalg.eigvalsh(h), None)
    wide = ~(_EIGH_COND * w[..., 0] >= w[..., -1])  # also a member with w_min <= 0
    if np.any(wide):
        if vectors:
            v, s, _ = np.linalg.svd(factor(wide))
            u[wide] = v[..., ::-1]
        else:
            s = np.linalg.svd(factor(wide), compute_uv=False)
        w[wide] = s[..., ::-1] ** 2
    return w, u, wide


def _congruence_eig(z: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, ...]:
    """(L U, L^{-1}, U, w) with Z = L L*, L^{-1} X L^{-*} = U diag(w) U*: one ``cholesky``, one ``eigh`` per stack.

    Z is checked by its Cholesky factor (``_factor``), and X by its own
    (``_cholesky``), taken only for ``_spectrum``'s wide members and for a
    non-finite X: that refuses an X that is not positive definite as the
    second argument.
    """
    low, linv = _factor(z, "first argument")
    if not np.isfinite(x).all():
        _cholesky(x, "second argument")
    m = linv @ x @ dagger(linv)
    w, u, _ = _spectrum(m, lambda wide: np.broadcast_to(linv, m.shape)[wide] @ _cholesky_members(x, wide))
    return low @ u, linv, u, w


def _cholesky_members(x: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """``_cholesky`` of the members ``mask`` of a mean's second argument X, broadcast to the mask's stack."""
    return _cholesky(np.broadcast_to(x, mask.shape + x.shape[-2:])[mask], "second argument")


def _frame_spectrum(lam1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """spec(M), M = D^{-1/2} X_2 D^{-1/2}, of pairs whose first argument is D = diag(lam1), lam1 > 0.

    A tester frame or graph sample draws its first member as diag(lam1)
    exactly, so M is formed entrywise as X_2 o (s s*), s = lam1^{-1/2},
    with no ``cholesky``, inverse or product, and ``_spectrum`` takes one
    ``eigvalsh`` per stack and no eigenvectors.  A wide member takes the
    singular values of K = D^{-1/2} L_2, L_2 the Cholesky factor of X_2,
    which checks X_2.  Its one caller is ``FreeFn._declared_at``.
    """
    s = 1.0 / np.sqrt(lam1)
    m = x2 * (s[..., :, None] * s[..., None, :])
    return _spectrum(m, lambda wide: s[wide][..., :, None] * _cholesky_members(x2, wide), vectors=False)[0]


def _congruence_fun(z: np.ndarray, x: np.ndarray, f: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Z^{1/2} f(Z^{-1/2} X Z^{-1/2}) Z^{1/2} as (L U) f(w) (L U)* from ``_congruence_eig``.

    This is the mean by congruence invariance (module docstring); f never
    sees an eigenvalue that is not positive.
    """
    lu, _, _, w = _congruence_eig(z, x)
    return herm_part((lu * f(w)[..., None, :]) @ dagger(lu))


def weighted_geo(z: np.ndarray, x: np.ndarray, t: float) -> np.ndarray:
    """t-weighted geometric mean Z #_t X = Z^{1/2}(Z^{-1/2} X Z^{-1/2})^t Z^{1/2}."""
    return _congruence_fun(z, x, _pair_function(0.0, 1.0 - t, t)[0])


def _pair_function(t: float, w1: float, w2: float) -> tuple[Callable, Callable]:
    """Representing function f of a two-argument mean, and its derivative.

    The two-argument power, Karcher, geometric and harmonic means are
    Kubo-Ando congruences A^{1/2} f(A^{-1/2} B A^{-1/2}) A^{1/2} (Kubo & Ando
    1980) with f(x) = (w1 + w2 x^t)^{1/t}: P_t for t in (0, 1], at t = 0 the
    t -> 0+ limit x^{w2}, Karcher (``geomean2`` when w2 = 1/2), and at
    t = -1 the harmonic mean.  The transpose x f(1/x), which represents the
    same mean with its arguments swapped, is this family with w1 and w2
    swapped.
    """
    if t == 0:
        return (lambda x: np.power(x, w2)), (lambda x: w2 * np.power(x, w2 - 1))
    return (
        lambda x: np.power(w1 + w2 * np.power(x, t), 1.0 / t),
        lambda x: w2 * np.power(x, t - 1) * np.power(w1 + w2 * np.power(x, t), 1.0 / t - 1),
    )


def _family(t: float) -> tuple[Callable, Callable]:
    """(f, f') of the mean equation sum w_i f(M_i) = f(1) I of P_t: x^t for t in (0, 1], log at t = 0."""
    return _pair_function(0.0, 1.0 - t, t) if t else (np.log, lambda x: 1.0 / x)


class _Arguments(tuple):
    """The arguments X_i of one mean solve, each one's Cholesky factor taken once, on first need."""

    def __new__(cls, xs: MatTuple) -> "_Arguments":
        self = super().__new__(cls, xs)
        self.lows: dict[int, np.ndarray] = {}
        return self

    def low(self, i: int) -> np.ndarray:
        """L_i with X_i = L_i L_i*, i counted from 1."""
        if i not in self.lows:
            xi = self[i - 1]
            try:
                self.lows[i] = _cholesky(xi, f"argument {i} is not positive definite: X_{i}")
            except NotPositiveDefinite:
                if not np.all(min_eig(xi) > 0):
                    raise
                raise NotPositiveDefinite(
                    f"X_{i} has no Cholesky factor although argument {i} is positive definite: at condition "
                    f"number {float(np.max(np.linalg.cond(xi))):.1e} rounding leaves it indefinite"
                ) from None
        return self.lows[i]


def _mean_equation(z: np.ndarray, xs: _Arguments, w: np.ndarray, f: Callable) -> tuple[np.ndarray, ...]:
    """L (Z = L L*), S = sum w_i f(M_i), kappa and the spread, M_i = L^{-1} X_i L^{-*}: one ``cholesky``, k ``eigh``.

    The power mean P_t (f(x) = x^t) and the Karcher mean (f = log, t = 0)
    are the positive solutions of S = f(1) I (Lim & Palfia 2012; Lawson &
    Lim 2014), stated with Z^{-1/2} in place of L^{-1}.  The Cholesky form
    turns S into a unitary conjugate Q* S Q (module docstring), so ||S||_F,
    kappa and the step Z <- L exp(s G) L* of ``_fixed_point``, G = log(S) / t
    or S, are those of the square root.  Z is checked by its Cholesky
    factor; Z starts at sum w_i X_i, so if Z fails, so does some X_i.  Each
    M_i is decomposed by ``_spectrum``, whose wide members take X_i's factor,
    taken once per solve (``_Arguments.low``), which also checks X_i.
    kappa bounds the factor by which a member's eigenvalues amplify
    rounding: cond(M_i) from ``eigh``, and from the SVD cond(L^{-1} L_i) =
    sqrt(cond(M_i)), raised to ``_EIGH_COND`` so that kappa never falls as
    cond(M_i) grows.  The spread sum w_i ((c_i + 1) / (c_i - 1)) log c_i,
    c_i = cond(M_i) and each term 2 at c_i = 1, sets the Karcher loop's
    Richardson step (``karcher_mean``).
    """
    low, linv = _factor(z, "an argument is not positive definite: the iterate Z, from sum w_i X_i,")
    s, kappa, spread = 0, 1.0, 0.0
    for i, (wi, xi) in enumerate(zip(w, xs), 1):
        m = linv @ xi @ dagger(linv)
        lam, u, wide = _spectrum(m, lambda wide: (np.broadcast_to(linv, m.shape)[wide]
                                                  @ np.broadcast_to(xs.low(i), m.shape)[wide]))
        s = s + wi * ((u * f(lam)[..., None, :]) @ dagger(u))
        cond = lam[..., -1] / lam[..., 0]
        kappa = np.maximum(kappa, np.where(wide, np.maximum(_EIGH_COND, np.sqrt(cond)), cond))
        with np.errstate(divide="ignore", invalid="ignore"):
            spread = spread + wi * np.where(cond > 1, np.log(cond) * (1 + 2 / (cond - 1)), 2.0)
    return low, s, kappa, spread


def _implicit_vgrad(
    z: np.ndarray, xs: MatTuple, seed: np.ndarray, w: np.ndarray, f: Callable, fprime: Callable
) -> list[np.ndarray]:
    """Implicit adjoint gradient of the mean Z solving E(Z, X) = sum w_i f(M_i) = f(1) I.

    With M_i = Z^{-1/2} X_i Z^{-1/2} the implicit function theorem gives
    G_i = -w_i Z^{-1/2} Df(M_i)[u] Z^{-1/2}, where u solves E_Z*[u] = W and

        E_Z*[u] = D(Z^{-1/2})[sum_i w_i 2 Herm(X_i Z^{-1/2} Df(M_i)[u])];

    Df and D(Z^{-1/2}) are Daleckii-Krein maps, self-adjoint under the trace
    pairing, and the Z-block is inverted on the Hermitian basis.  One
    ``eigh`` of Z gives both Z^{-1/2} and D(Z^{-1/2}).  Two arguments take
    ``_loewner_vgrad`` instead.
    """
    lam, u = _eigh(z)
    rinv = (u / np.sqrt(lam)[..., None, :]) @ dagger(u)
    t_map = dk_map(z, lambda x: 1.0 / np.sqrt(x), lambda x: -0.5 * np.power(x, -1.5), (lam, u))
    dfs = [dk_map(herm_part(rinv @ xi @ rinv), f, fprime) for xi in xs]

    def e_z_adjoint(u: np.ndarray) -> np.ndarray:
        acc = np.zeros_like(u)
        for wi, xi, df in zip(w, xs, dfs):
            acc = acc + wi * herm_part(xi @ rinv @ df(u)) * 2
        return herm_part(t_map(acc))

    u = solve_linear_map(e_z_adjoint, herm_part(seed))
    return [herm_part(-wi * rinv @ df(u) @ rinv) for wi, df in zip(w, dfs)]


def _mean_gradient(z: np.ndarray, xs: _Arguments, w: np.ndarray, t: float) -> tuple[np.ndarray, ...]:
    """L, the step's G = log(S) / t, or S at t = 0, per member ||G||_F and its stopping floor (``power_mean``),
    and the Richardson step 2 / sum w_i ((c_i + 1) / (c_i - 1)) log c_i of the Karcher loop (``karcher_mean``)."""
    low, s, kappa, spread = _mean_equation(z, xs, w, _family(t)[0])
    grad = _eigh_fun(np.log, s) / t if t else s
    res = fro_norm(grad)
    floor = 16 * np.finfo(float).eps * kappa ** (1 - t) * np.exp(-2 * res)
    return low, grad, res, np.maximum(_KARCHER_RTOL / (t or 1), floor), 2 / spread


def _fixed_point(xs: _Arguments, w: np.ndarray, t: float, name: str) -> tuple[np.ndarray, ...]:
    """The k >= 3 loop of P_t, the Karcher mean at t = 0: Z <- L exp(s G) L* from ``_mean_gradient``.

    s halves for t > 0 (``power_mean``); at t = 0 it turns from 1 to the Richardson step (``karcher_mean``).
    """
    z = _weighted_sum(xs, w)
    damping, prev_res, richardson = 1.0, np.inf, False
    for iterations in range(1, _MAX_ITER + 1):
        low, grad, norms, floor, theta = _mean_gradient(z, xs, w, t)
        res = float(np.max(np.where(norms <= floor, 0.0, norms), initial=0.0))
        if res == 0.0:
            return z, iterations, norms
        if t == 0:
            richardson = richardson or res > prev_res / 2
            damping = theta[..., None, None] if richardson else 1.0
        elif res > (1 - t) * prev_res:
            damping = max(damping / 2, t)
        prev_res = res
        z = herm_part(low @ _eigh_fun(np.exp, damping * grad) @ dagger(low))
    raise NoConvergence(f"{name} iteration stalled at residual {prev_res:.3e}")


def _mean(xs: MatTuple, w: np.ndarray, t: float, return_info: bool = False):
    """``power_mean`` (t in (0, 1]) and ``karcher_mean`` (t = 0) of checked arguments, one per weight of ``w``.

    P_1 is the arithmetic mean Herm(sum w_i X_i) at every arity, returned
    once each X_i's Cholesky factor (``_Arguments.low``) has checked it.
    Two arguments take their congruence, more the k >= 3 loop.
    """
    xs, iterations, norms = _Arguments(xs), 0, None
    if t == 1:
        for i in range(1, len(xs) + 1):
            xs.low(i)
        z = _weighted_sum(xs, w)
    elif len(xs) == 2:
        z = _congruence_fun(xs[0], xs[1], _pair_function(t, *w)[0])
    else:
        z, iterations, norms = _fixed_point(xs, w, t, f"power mean t={t:g}" if t else "Karcher")
    if not return_info:
        return z
    norms = _mean_gradient(z, xs, w, t)[2] if norms is None else norms
    return z, {"iterations": iterations, "residual": float(np.max(norms, initial=0.0))}


def power_mean(xs: MatTuple, t: float, weights: tuple[float, ...]) -> np.ndarray:
    """Matrix power mean P_t: the solution of Z = sum w_i (Z #_t X_i).

    P_1 is the arithmetic mean: Z = sum w_i Z #_1 X_i = sum w_i X_i.  At
    every arity it returns Herm(sum w_i X_i), after one ``cholesky`` of each
    argument and no inverse, which refuses an argument that is not positive
    definite by its number (``_mean``).

    For t < 1, two arguments have a closed form.  Congruence by A^{-1/2}
    turns the equation into Y = w_1 Y^{1-t} + w_2 (Y #_t M) with
    M = A^{-1/2} B A^{-1/2}, whose unique solution commutes with M, so

        P_t(w_1, w_2; A, B) = A^{1/2} (w_1 I + w_2 M^t)^{1/t} A^{1/2},

    the congruence of ``_pair_function(t, w_1, w_2)``, evaluated with A's
    Cholesky factor (``_congruence_fun``): one ``cholesky`` and one ``eigh``
    per stack.  Three or more arguments run the k >= 3 loop
    (``_fixed_point``) with the step Z <- L exp(s G) L* = L S^{s/t} L*,
    G = log(S) / t, S = sum w_i M_i^t (``_mean_equation`` at f(x) = x^t):
    one ``cholesky`` and k + 2 ``eigh`` a step, exact for commuting
    arguments.  At s = t it is the contraction Z <- sum w_i (Z #_t X_i),
    which moves Z by ||log S||_2 in the Thompson metric d and shrinks
    d(Z, P_t) by 1 - t (Lim & Palfia 2012); s halves, down to t, whenever
    the largest ||G||_F shrinks by less than 1 - t, so the loop converges for
    every t < 1.  A member stops at ||G||_F <= max(``_KARCHER_RTOL`` / t,
    16 eps kappa^{1-t} exp(-2 ||G||_F)).  That cannot stop early, as
    d(Z, P_t) <= ||log S||_2 / t <= ||G||_F moves kappa^{1-t} by at most
    exp(2 ||G||_F), nor stall: rounding eps lam_max of M_i moves
    w_i lam^t <= S = I by t eps w_i lam_max lam^{t-1} <= t eps kappa^{1-t},
    so G by eps kappa^{1-t}, and summing S and its log move G by about
    k eps / t.  NoConvergence follows ``_MAX_ITER`` steps.  The arguments
    take ``matcore.check_args``, one per weight.  The Karcher mean is the
    same family at t = 0 (``_mean``).
    """
    if not (0.0 < t <= 1.0):
        raise BadConfig("t must lie in (0, 1]")
    w = _check_weights(weights)
    return _mean(check_args(xs, w.size, "power_mean"), w, t)


def _mean_fn(name: str, w: np.ndarray, t: float) -> FreeFn:
    """FreeFn of P_t, the Karcher mean at t = 0.

    Two arguments declare ``_pair_function(t, *w)`` (``_declared_fn``); more take ``_mean`` and the
    ``_implicit_vgrad`` of f from ``_family(t)``, and declare nothing.  P_1 evaluates by ``_mean`` at
    every arity, the arithmetic mean, whose adjoint is w_i W; two arguments still declare f(x) = w_1 + w_2 x.
    """
    if t == 1:
        return FreeFn(name=name, arity=w.size, evaluator=partial(_mean, w=w, t=t),
                      vgrad=lambda xs, seed: [wi * seed for wi in w],
                      scalar=_pair_function(t, *w) if w.size == 2 else None)
    if w.size == 2:
        return _declared_fn(name, 2, *_pair_function(t, *w))
    evaluate = partial(_mean, w=w, t=t)
    return FreeFn(name=name, arity=w.size, evaluator=evaluate,
                  vgrad=lambda xs, seed: _implicit_vgrad(evaluate(xs), xs, seed, w, *_family(t)))


def power_mean_fn(t: float, weights: tuple[float, ...]) -> FreeFn:
    if not (0.0 < t <= 1.0):
        raise UnknownFunction(f"power mean requires t in (0, 1], got {t:g}")
    return _mean_fn(f"power:t={t:g}", _check_weights(weights), t)


def karcher_mean(xs: MatTuple, weights: tuple[float, ...], return_info: bool = False):
    """Karcher (least-squares) mean of a positive definite tuple: P_t at t = 0 (``_mean``).

    Two arguments have a closed form, Karcher(w_1, w_2; A, B) = A #_{w_2} B,
    the congruence of ``_pair_function(0, w_1, w_2)`` (``_congruence_fun``):
    one ``cholesky`` and one ``eigh`` per stack, and ``return_info`` reports
    zero iterations with the Karcher-equation residual measured at the value.

    Three or more arguments run the k >= 3 loop (``_fixed_point``) from the
    arithmetic mean with the step Z <- L exp(s S) L*, Z = L L*, S =
    sum w_i log M_i (``_mean_equation`` at f = log), the Karcher equation's
    fixed-point form: one ``cholesky`` and k + 1 ``eigh`` a step.  s is 1
    while the largest ||S||_F of the members still running at least halves;
    from the first step where it does not, each member takes the Richardson
    step s = theta = 2 / sum w_i ((c_i + 1) / (c_i - 1)) log c_i,
    c_i = cond(M_i) at the current Z (Bini & Iannazzo, *Linear Algebra
    Appl.* 438, 2013).  Why it converges: at the mean, taken to be I by
    congruence, Z = exp(E) gives M_i = X_i - (E X_i + X_i E) / 2 + O(E^2),
    and the Daleckii-Krein derivative of log turns that into
    S = -J[E] + O(E^2), J = sum w_i J_i, J_i the Schur multiplier by
    h(mu_a / mu_b) in X_i's eigenbasis, h(g) = ((g + 1) / (g - 1)) log(g) / 2.
    h is 1 at g = 1 and grows with |log g|, so J is self-adjoint under the
    trace pairing with its spectrum in [1, beta], beta = sum w_i h(c_i) =
    1 / theta.  The step maps E to (I - s J) E + O(E^2): at s = theta its
    spectrum lies in [0, 1 - theta], a contraction near the mean for every
    spectrum, while s = 1 contracts by beta - 1 only, which the halving
    test watches; the c_i read at Z move theta by O(E).  A member stops
    once ||S||_F, which does not change when every
    X_i is scaled, drops to max(``_KARCHER_RTOL``, 16 eps kappa
    exp(-2 ||S||_F)), kappa the rounding factor of ``_mean_equation``.  Near
    the solution Z* that is S's rounding floor 16 eps kappa, so it does not
    stall, and it never exceeds 16 eps kappa* at Z*: the Karcher objective
    is 1-strongly geodesically convex, so d(Z, Z*) <= ||S||_F, which moves
    each cond(M_i), and so kappa, by a factor of at most exp(2 ||S||_F); a
    far start cannot stop early.  NoConvergence follows ``_MAX_ITER``
    steps.  The arguments take ``matcore.check_args``, one per weight.
    """
    w = _check_weights(weights)
    return _mean(check_args(xs, w.size, "karcher_mean"), w, 0.0, return_info)


def karcher_mean_fn(weights: tuple[float, ...]) -> FreeFn:
    return _mean_fn("karcher", _check_weights(weights), 0.0)


def geometric_mean_2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Two-variable geometric mean A # B, the Karcher mean at weights (1/2, 1/2)."""
    return karcher_mean((np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)), (0.5, 0.5))


def geometric_mean_2_fn() -> FreeFn:
    return replace(karcher_mean_fn((0.5, 0.5)), name="geomean2")


# ---------------------------------------------------------------------------
# Moebius transformations


@dataclass(frozen=True)
class MobiusMap:
    """x -> (a x + b) / (c x + d) with 0 < a d - b c < inf, which refuses a NaN or infinite coefficient."""

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self) -> None:
        if not 0 < self.a * self.d - self.b * self.c < np.inf:
            raise BadConfig("Moebius map requires a finite a d - b c > 0")

    def scalar(self, x):
        return (self.a * x + self.b) / (self.c * x + self.d)


def mobius_apply(g: MobiusMap, x: np.ndarray) -> np.ndarray:
    """(a X + b I)(c X + d I)^{-1} for X stacked ``(..., n, n)`` (``matcore.check_args``); PoleHit near the pole."""
    x = np.asarray(check_args((x,), 1, "mobius_apply")[0], dtype=complex)
    n = x.shape[-1]
    eye = np.eye(n)
    denom = g.c * x + g.d * eye
    sv = np.linalg.svd(denom, compute_uv=False)
    if np.any(sv[..., -1] <= RANK_CUT * sv[..., 0]):  # each member against its own largest
        raise PoleHit("c X + d I is numerically singular")
    return (g.a * x + g.b * eye) @ np.linalg.inv(denom)


def mobius_fn(g: MobiusMap) -> FreeFn:
    """The lift of the map, declared operator monotone exactly when its pole misses (0, inf).

    With a d - b c > 0 the map is a/c - (a d - b c) / (c^2 (x + d/c)) for
    c != 0, operator monotone and concave on (0, inf) when the pole -d/c is
    at most 0; c = 0 makes it affine with positive slope.  A pole inside
    (0, inf), as x / (1 - x) has, breaks both on the positive matrices.
    """

    def _ev(xs: MatTuple) -> np.ndarray:
        return herm_part(mobius_apply(g, xs[0]))

    det = g.a * g.d - g.b * g.c
    declared = g.c == 0 or g.d / g.c >= 0
    return FreeFn(
        name=f"mobius:{g.a:g},{g.b:g},{g.c:g},{g.d:g}",
        arity=1,
        evaluator=_ev,
        complex_evaluator=lambda xs: mobius_apply(g, xs[0]),
        vgrad=partial(_loewner_vgrad, g.scalar, lambda x: det / (g.c * x + g.d) ** 2),
        monotone=declared,
    )


# ---------------------------------------------------------------------------
# numerical Frechet derivative


def frechet_many(
    fn: FreeFn,
    x: MatTuple,
    directions: list[MatTuple],
    h: float,
) -> list[np.ndarray]:
    """Richardson-refined central differences along many directions at once.

    Stacks X +- h H and X +- (h/2) H for every direction into one batched
    evaluation, so the means run a single batched solve for the whole
    family.  Each slot of ``x`` is one base point ``(n, n)`` shared by all
    directions or a stack ``(m, n, n)`` with one base point per direction.
    """
    n = x[0].shape[-1]
    m = len(directions)
    stacked = []
    for i, base in enumerate(x):
        base = np.asarray(base, dtype=complex)
        d = np.stack([np.asarray(hh[i], dtype=complex) for hh in directions])
        rows = np.stack([base + h * d, base - h * d, base + (h / 2) * d, base - (h / 2) * d], axis=1)
        stacked.append(rows.reshape(4 * m, n, n))
    out = fn(tuple(stacked)).reshape(m, 4, n, n)
    d_h = (out[:, 0] - out[:, 1]) / (2 * h)
    d_h2 = (out[:, 2] - out[:, 3]) / h
    return list(herm_part((4.0 * d_h2 - d_h) / 3.0))


_MAX_HALVINGS = 20


def frechet_derivative(
    fn: FreeFn,
    x: MatTuple,
    direction: MatTuple,
    tol: Tolerances = DEFAULT_TOL,
) -> np.ndarray:
    """Central-difference Frechet derivative DF(X)(H) with step validation.

    The step starts at 1e-3 (1 + max_i ||X_i||_F) and is halved until two
    successive Richardson-refined estimates agree within the relative ``eq``
    tolerance; StepUnderflow is raised when the ``_MAX_HALVINGS`` = 20 steps
    tried, the last 1e-3 2^-19 (1 + max_i ||X_i||_F), give no two that
    agree.  Both ``x`` and ``direction`` take ``matcore.check_args`` against
    ``fn``'s arity as one tuple, not a stack, and must be of one size
    (DimensionMismatch).
    """
    x = check_args(x, fn.arity, fn.name, one=True)
    direction = check_args(direction, fn.arity, f"{fn.name} direction", one=True)
    if x[0].shape[-1] != direction[0].shape[-1]:
        raise DimensionMismatch(f"{fn.name} direction has size {direction[0].shape[-1]}, the point {x[0].shape[-1]}")
    step = 1e-3 * (1.0 + max(float(fro_norm(m)) for m in x))
    prev = None
    for _ in range(_MAX_HALVINGS):
        est = frechet_many(fn, x, [direction], step)[0]
        if prev is not None:
            gap = float(fro_norm(est - prev))
            if gap <= tol.eq * (1.0 + float(fro_norm(est))):
                return est
        prev = est
        step /= 2
    raise StepUnderflow("step halving exhausted without agreement")


# ---------------------------------------------------------------------------
# string catalogue

CATALOGUE_IDS = (
    "identity",
    "sqrt",
    "log1p",
    "pow:P          (P in (0,1), e.g. pow:0.7)",
    "xsq            (negative control)",
    "faketrace      (negative control)",
    "harmonic[:w=W1,W2,...]",
    "arithmetic[:w=...]",
    "geomean2",
    "power:t=T[:w=...]",
    "karcher[:w=...]",
    "mobius:a,b,c,d",
)


def _parse_weights(spec: str | None) -> tuple[float, ...]:
    return (0.5, 0.5) if spec is None else tuple(float(s) for s in spec.split(","))


def _parse_identifier(identifier: str) -> tuple[str, dict[str, str], list[str]]:
    """(head, key=value parameters, positional parameters) of a catalogue identifier ``head:a:k=v``."""
    head, *parts = identifier.split(":")
    return head, dict(p.split("=", 1) for p in parts if "=" in p), [p for p in parts if "=" not in p]


def _pow_exponent(kv: dict[str, str], positional: list[str]) -> float:
    """The exponent P of ``pow:P`` or ``pow:p=P`` (NaN when absent); ValueError where it is not a number."""
    return float(kv.get("p", positional[0] if positional else "nan"))


def resolve_function(identifier: str) -> FreeFn:
    """Resolve a catalogue identifier like ``sqrt`` or ``karcher:w=0.5,0.5``."""
    head, kv, positional = _parse_identifier(identifier)
    try:
        if head in ("sqrt", "log1p", "identity", "xsq"):
            return lift_scalar(head)
        if head == "pow":
            return lift_scalar("pow", _pow_exponent(kv, positional))
        if head == "faketrace":
            return fake_trace_fn()
        if head == "harmonic":
            return harmonic_mean(_parse_weights(kv.get("w")))
        if head == "arithmetic":
            return arithmetic_mean(_parse_weights(kv.get("w")))
        if head == "geomean2":
            return geometric_mean_2_fn()
        if head == "power":
            t = float(kv["t"]) if "t" in kv else float(positional[0])
            return power_mean_fn(t, _parse_weights(kv.get("w")))
        if head == "karcher":
            return karcher_mean_fn(_parse_weights(kv.get("w")))
        if head == "mobius":
            coeffs = kv.get("coef")
            raw = coeffs.split(",") if coeffs else positional[0].split(",") if positional else None
            if raw is None or len(raw) != 4:
                raise UnknownFunction("mobius needs four coefficients a,b,c,d")
            a, b, c, d = (float(s) for s in raw)
            return mobius_fn(MobiusMap(a, b, c, d))
    except (KeyError, IndexError, ValueError, BadConfig) as exc:
        raise UnknownFunction(f"cannot parse function identifier {identifier!r}: {exc}") from exc
    raise UnknownFunction(f"unknown function identifier {identifier!r}")
