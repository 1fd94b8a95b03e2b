"""Free-function catalogue.

Concrete noncommutative functions used as certification subjects and as
inputs to the representation machinery: one-variable functional-calculus
lifts, multivariable operator means (harmonic, arithmetic, weighted
geometric, power means and the Karcher mean), Moebius transformations, and
two deliberately broken negative controls.

Evaluators are batched: each accepts a tuple of stacked Hermitian arguments
``(..., n, n)`` and broadcasts over the leading axes.  Two-argument power and
Karcher means are evaluated in closed form with two eigendecompositions of the
whole stack; with three or more arguments the fixed-point iterations run all
batch elements in lockstep.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (
    ArityMismatch,
    NoConvergence,
    NotPositiveDefinite,
    PoleHit,
    SingularArgument,
    StepUnderflow,
    UnknownFunction,
)
from .gradients import dk_map, solve_linear_map
from .matcore import (
    DEFAULT_TOL,
    Tolerances,
    block_diag,
    dagger,
    fro_norm,
    herm_part,
    min_eig,
)
from .sampling import rand_tuple_interval, rand_unitary

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
    "nc_axiom_check",
    "NCAxiomReport",
    "resolve_function",
    "CATALOGUE_IDS",
]

MatTuple = tuple[np.ndarray, ...]


# ---------------------------------------------------------------------------
# batched Hermitian helpers


def _eigh_fun(f: Callable[[np.ndarray], np.ndarray], a: np.ndarray) -> np.ndarray:
    w, u = np.linalg.eigh(herm_part(a))
    return (u * f(w)[..., None, :]) @ dagger(u)


def _spd_check(a: np.ndarray, what: str, exc=NotPositiveDefinite) -> None:
    lam = float(np.min(min_eig(a)))
    if lam <= 0.0:
        raise exc(f"{what} has minimum eigenvalue {lam:.3e}")


def _roots(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Z^{1/2}, Z^{-1/2}) of a positive definite stack."""
    w, u = np.linalg.eigh(herm_part(z))
    sq = np.sqrt(w)
    return (u * sq[..., None, :]) @ dagger(u), (u / sq[..., None, :]) @ dagger(u)


def _herm_pow(a: np.ndarray, t: float) -> np.ndarray:
    return _eigh_fun(lambda w: np.power(w, t), a)


def _herm_log(a: np.ndarray) -> np.ndarray:
    return _eigh_fun(np.log, a)


def _herm_exp(a: np.ndarray) -> np.ndarray:
    return _eigh_fun(np.exp, a)


# ---------------------------------------------------------------------------
# the FreeFn abstraction


@dataclass(frozen=True)
class FreeFn:
    """A concrete noncommutative function together with its declared flags.

    ``evaluator`` maps a k-tuple of stacked Hermitian matrices to a stacked
    Hermitian result of the same dimension.  ``complex_evaluator``, when
    present, extends the function to non-Hermitian arguments.  ``vgrad``,
    when present, is the exact adjoint gradient: given one argument tuple
    and a Hermitian seed W it returns the matrices G_i representing the
    slot derivatives of X -> tr(W F(X)).  Declared properties are what the
    catalogue *claims*; the cert module tests them.
    """

    name: str
    arity: int
    evaluator: Callable[[MatTuple], np.ndarray]
    complex_evaluator: Callable[[MatTuple], np.ndarray] | None = None
    vgrad: Callable[[MatTuple, np.ndarray], list[np.ndarray]] | None = None
    monotone: bool = True
    concave: bool = True
    positive: bool = True
    domain: tuple[float, float] | None = None  # None: the full positive cone

    def __call__(self, *mats: np.ndarray) -> np.ndarray:
        if len(mats) == 1 and isinstance(mats[0], (tuple, list)):
            mats = tuple(mats[0])
        if len(mats) != self.arity:
            raise ArityMismatch(f"{self.name} takes {self.arity} arguments, got {len(mats)}")
        return self.evaluator(tuple(np.asarray(m, dtype=complex) for m in mats))

    def eval_complex(self, *mats: np.ndarray) -> np.ndarray:
        if self.complex_evaluator is None:
            raise UnknownFunction(f"{self.name} has no complex evaluator")
        if len(mats) == 1 and isinstance(mats[0], (tuple, list)):
            mats = tuple(mats[0])
        return self.complex_evaluator(tuple(np.asarray(m, dtype=complex) for m in mats))


# ---------------------------------------------------------------------------
# one-variable lifts


def _principal_matfun(f_scalar: Callable[[np.ndarray], np.ndarray]) -> Callable[[MatTuple], np.ndarray]:
    """Principal-branch matrix function through diagonalization.

    Adequate for the catalogue's complex probes, whose arguments are
    diagonalizable with spectra off the branch cut.
    """

    def apply(xs: MatTuple) -> np.ndarray:
        (x,) = xs
        w, v = np.linalg.eig(x)
        return v @ ((f_scalar(w))[..., :, None] * np.linalg.inv(v))

    return apply


_SCALAR_LIFTS: dict[str, tuple[Callable, Callable, Callable | None, bool, bool]] = {
    # name: (scalar function, derivative, complex scalar function, monotone, concave)
    "sqrt": (np.sqrt, lambda x: 0.5 / np.sqrt(x), np.sqrt, True, True),
    "log1p": (np.log1p, lambda x: 1.0 / (1.0 + x), lambda z: np.log(1.0 + z), True, True),
    "identity": (lambda x: x, lambda x: np.ones_like(x), lambda z: z, True, True),
    "xsq": (lambda x: x**2, lambda x: 2.0 * x, lambda z: z**2, False, False),
}


def _dk_vgrad(f: Callable, fprime: Callable) -> Callable[[MatTuple, np.ndarray], list[np.ndarray]]:
    def vgrad(xs: MatTuple, w: np.ndarray) -> list[np.ndarray]:
        return [herm_part(dk_map(xs[0], f, fprime)(w))]

    return vgrad


def lift_scalar(name: str, p: float | None = None) -> FreeFn:
    """One-variable functional-calculus lift from the catalogue.

    Known names: sqrt, log1p, identity, xsq (the non-monotone control),
    and pow with exponent ``p`` in (0, 1).
    """
    if name == "pow":
        if p is None or not (0.0 < p < 1.0):
            raise UnknownFunction("pow requires an exponent p in (0, 1)")

        def _ev(xs: MatTuple) -> np.ndarray:
            _spd_check(xs[0], "argument")
            return _herm_pow(xs[0], p)

        return FreeFn(
            name=f"pow:{p:g}",
            arity=1,
            evaluator=_ev,
            complex_evaluator=_principal_matfun(lambda z: np.power(z, p)),
            vgrad=_dk_vgrad(lambda x: np.power(x, p), lambda x: p * np.power(x, p - 1)),
        )
    if name not in _SCALAR_LIFTS:
        raise UnknownFunction(f"no scalar lift named {name!r}")
    f, fp, fc, monotone, concave = _SCALAR_LIFTS[name]

    def _ev(xs: MatTuple) -> np.ndarray:
        if name in ("sqrt", "log1p"):
            _spd_check(xs[0], "argument")
        return _eigh_fun(f, xs[0])

    return FreeFn(
        name=name,
        arity=1,
        evaluator=_ev,
        complex_evaluator=_principal_matfun(fc) if fc is not None else None,
        vgrad=_dk_vgrad(f, fp),
        monotone=monotone,
        concave=concave,
    )


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

    return FreeFn(name="faketrace", arity=1, evaluator=_ev, monotone=False, concave=False, positive=False)


# ---------------------------------------------------------------------------
# operator means


def _check_weights(weights: tuple[float, ...]) -> np.ndarray:
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size < 1 or np.any(w <= 0):
        raise ValueError("weights must be positive")
    if abs(w.sum() - 1.0) > 1e-12:
        raise ValueError("weights must sum to one")
    return w


def harmonic_mean(weights: tuple[float, ...]) -> FreeFn:
    """X -> (sum w_i X_i^{-1})^{-1}."""
    w = _check_weights(weights)

    def _ev(xs: MatTuple) -> np.ndarray:
        for xi in xs:
            _spd_check(xi, "harmonic mean argument", SingularArgument)
        acc = sum(wi * np.linalg.inv(herm_part(xi)) for wi, xi in zip(w, xs))
        return herm_part(np.linalg.inv(acc))

    def _vgrad(xs: MatTuple, seed: np.ndarray) -> list[np.ndarray]:
        # D_i F[H] = w_i F X_i^{-1} H X_i^{-1} F, a congruence sandwich
        value = _ev(xs)
        out = []
        for wi, xi in zip(w, xs):
            m = np.linalg.inv(herm_part(xi)) @ value
            out.append(herm_part(wi * m @ seed @ dagger(m)))
        return out

    return FreeFn(name="harmonic", arity=w.size, evaluator=_ev, vgrad=_vgrad)


def arithmetic_mean(weights: tuple[float, ...]) -> FreeFn:
    w = _check_weights(weights)

    def _ev(xs: MatTuple) -> np.ndarray:
        return herm_part(sum(wi * xi for wi, xi in zip(w, xs)))

    return FreeFn(
        name="arithmetic",
        arity=w.size,
        evaluator=_ev,
        vgrad=lambda xs, seed: [wi * seed for wi in w],
    )


def _congruence_fun(z: np.ndarray, x: np.ndarray, f: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Z^{1/2} f(Z^{-1/2} X Z^{-1/2}) Z^{1/2}, two eigendecompositions per stack."""
    zr, zir = _roots(z)
    return herm_part(zr @ _eigh_fun(f, zir @ x @ zir) @ zr)


def weighted_geo(z: np.ndarray, x: np.ndarray, t: float) -> np.ndarray:
    """t-weighted geometric mean Z #_t X = Z^{1/2}(Z^{-1/2} X Z^{-1/2})^t Z^{1/2}."""
    return _congruence_fun(z, x, lambda m: np.power(m, t))


def _geo_step(z: np.ndarray, xs: MatTuple, w: np.ndarray, t: float) -> np.ndarray:
    """sum_i w_i (Z #_t X_i) with Z factored once: k + 1 eigendecompositions."""
    zr, zir = _roots(z)
    inner = sum(wi * _herm_pow(zir @ xi @ zir, t) for wi, xi in zip(w, xs))
    return herm_part(zr @ inner @ zr)


def geometric_mean_2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Two-variable geometric mean A # B."""
    _spd_check(a, "first argument")
    _spd_check(b, "second argument")
    return weighted_geo(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex), 0.5)


def _geo_second_slot_adjoint(a: np.ndarray, b: np.ndarray, seed: np.ndarray, t: float) -> np.ndarray:
    """Adjoint of H -> d/ds (A #_t (B + sH)) applied to a Hermitian seed."""
    ar, air = _roots(a)
    m = air @ b @ air
    dp = dk_map(m, lambda x: np.power(x, t), lambda x: t * np.power(x, t - 1))
    return herm_part(air @ dp(ar @ seed @ ar) @ air)


def geometric_mean_2_fn() -> FreeFn:
    def _vgrad(xs: MatTuple, seed: np.ndarray) -> list[np.ndarray]:
        a, b = xs
        # A # B = B # A, so the first-slot adjoint is the second-slot one swapped
        return [
            _geo_second_slot_adjoint(b, a, seed, 0.5),
            _geo_second_slot_adjoint(a, b, seed, 0.5),
        ]

    return FreeFn(
        name="geomean2",
        arity=2,
        evaluator=lambda xs: geometric_mean_2(xs[0], xs[1]),
        vgrad=_vgrad,
    )


def power_mean(
    xs: MatTuple,
    t: float,
    weights: tuple[float, ...],
    rtol: float = 1e-12,
    max_iter: int = 10_000,
) -> np.ndarray:
    """Matrix power mean P_t: the solution of Z = sum w_i (Z #_t X_i).

    Two arguments have a closed form.  Congruence by A^{-1/2} turns the
    equation into Y = w_1 Y^{1-t} + w_2 (Y #_t M) with M = A^{-1/2} B A^{-1/2},
    whose unique solution commutes with M, so

        P_t(w_1, w_2; A, B) = A^{1/2} (w_1 I + w_2 M^t)^{1/t} A^{1/2},

    two eigendecompositions per stack.  Three or more arguments use plain
    fixed-point iteration from the arithmetic mean: the map is a
    Thompson-metric contraction with ratio (1 - t) (Lim & Palfia 2012), so it
    converges for every t in (0, 1].  Each step factors Z once and costs
    k + 1 eigendecompositions; ``rtol`` and ``max_iter`` govern this
    iteration only.
    """
    if not (0.0 < t <= 1.0):
        raise ValueError("t must lie in (0, 1]")
    w = _check_weights(weights)
    if len(xs) != w.size:
        raise ArityMismatch(f"{w.size} weights but {len(xs)} arguments")
    for xi in xs:
        _spd_check(xi, "power mean argument")
    if len(xs) == 2:
        w1, w2 = w
        return _congruence_fun(xs[0], xs[1], lambda mu: np.power(w1 + w2 * np.power(mu, t), 1.0 / t))
    z = herm_part(sum(wi * xi for wi, xi in zip(w, xs)))
    scale = 1.0 + float(np.max(np.atleast_1d(fro_norm(z))))
    for _ in range(max_iter):
        new = _geo_step(z, xs, w, t)
        delta = float(np.max(np.atleast_1d(fro_norm(new - z))))
        z = new
        if delta <= rtol * scale:
            return z
    raise NoConvergence(f"power mean t={t} did not converge within {max_iter} iterations")


def _power_mean_vgrad(
    xs: MatTuple, seed: np.ndarray, t: float, w: np.ndarray
) -> list[np.ndarray]:
    """Implicit adjoint gradient of the power mean.

    With Phi(Z, X) = sum w_i Z #_t X_i and Z the fixed point, the chain rule
    gives G_i = Phi_{X_i}* (Id - Phi_Z*)^{-1} seed; the partial adjoints are
    combinations of Daleckii-Krein sandwiches at the solved Z.
    """
    xs_flat = tuple(np.asarray(x, dtype=complex) for x in xs)
    z = power_mean(xs_flat, t, tuple(w))
    r, rinv = _roots(z)
    s_map = dk_map(z, np.sqrt, lambda x: 0.5 / np.sqrt(x))
    t_map = dk_map(z, lambda x: 1.0 / np.sqrt(x), lambda x: -0.5 * np.power(x, -1.5))
    ms = [herm_part(rinv @ xi @ rinv) for xi in xs_flat]
    dps = [dk_map(m, lambda x: np.power(x, t), lambda x: t * np.power(x, t - 1)) for m in ms]
    mts = [_herm_pow(m, t) for m in ms]

    def phi_z_adjoint(u: np.ndarray) -> np.ndarray:
        acc = np.zeros_like(u)
        for wi, xi, mt, dp in zip(w, xs_flat, mts, dps):
            q = dp(r @ u @ r)
            acc = acc + wi * (
                s_map(herm_part(mt @ r @ u) * 2) + t_map(herm_part(xi @ rinv @ q) * 2)
            )
        return herm_part(acc)

    u = solve_linear_map(lambda h: h - phi_z_adjoint(h), herm_part(seed))
    return [herm_part(wi * rinv @ dp(r @ u @ r) @ rinv) for wi, dp in zip(w, dps)]


def power_mean_fn(t: float, weights: tuple[float, ...]) -> FreeFn:
    w = _check_weights(weights)
    return FreeFn(
        name=f"power:t={t:g}",
        arity=w.size,
        evaluator=lambda xs: power_mean(xs, t, tuple(w)),
        vgrad=lambda xs, seed: _power_mean_vgrad(xs, seed, t, w),
    )


_KARCHER_LADDER = (1 / 2, 1 / 4)


def _karcher_gradient(z: np.ndarray, xs: MatTuple, w: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Z^{1/2}, the Karcher gradient sum w_i log(Z^{-1/2} X_i Z^{-1/2}) and its worst norm."""
    zr, zir = _roots(z)
    grad = sum(wi * _herm_log(zir @ xi @ zir) for wi, xi in zip(w, xs))
    return zr, grad, float(np.max(np.atleast_1d(fro_norm(grad))))


def karcher_mean(
    xs: MatTuple,
    weights: tuple[float, ...],
    rtol: float = 1e-13,
    max_iter: int = 10_000,
    return_info: bool = False,
):
    """Karcher (least-squares) mean of a positive definite tuple.

    Two arguments have a closed form, Karcher(w_1, w_2; A, B) = A #_{w_2} B,
    the t -> 0+ limit of the two-argument power-mean formula: two
    eigendecompositions per stack, and ``return_info`` reports zero
    iterations with the Karcher-equation residual measured at the value.

    For three or more arguments, the power means P_t decrease to the Karcher
    mean as t -> 0+, so the ``_KARCHER_LADDER`` values are computed with warm
    starts and Richardson-extrapolated to t = 0 as the initializer.
    Extrapolation alone carries an O(prod t_j) bias, far above the accuracy
    the downstream order checks need, so the extrapolant is polished by the
    fixed-point form of the Karcher equation

        Z <- Z^{1/2} exp( sum_i w_i log(Z^{-1/2} X_i Z^{-1/2}) ) Z^{1/2}

    until the equation residual drops below ``rtol`` relative.  The polish
    makes the ladder choice immaterial to the value, so the ladder keeps
    only two nodes.
    """
    w = _check_weights(weights)
    if len(xs) != w.size:
        raise ArityMismatch(f"{w.size} weights but {len(xs)} arguments")
    for xi in xs:
        _spd_check(xi, "Karcher mean argument")

    if len(xs) == 2:
        z = weighted_geo(xs[0], xs[1], w[1])
        if return_info:
            return z, {"iterations": 0, "residual": _karcher_gradient(z, xs, w)[2]}
        return z

    # warm-started ladder, loose inner tolerance: this is only the initializer
    vals = []
    z = herm_part(sum(wi * xi for wi, xi in zip(w, xs)))
    for t in _KARCHER_LADDER:
        scale = 1.0 + float(np.max(np.atleast_1d(fro_norm(z))))
        for _ in range(max_iter):
            step = _geo_step(z, xs, w, t)
            delta = float(np.max(np.atleast_1d(fro_norm(step - z))))
            z = step
            if delta <= 1e-7 * scale:
                break
        else:
            raise NoConvergence(f"power-mean ladder stalled at t={t}")
        vals.append(z)

    # Neville extrapolation of the matrix ladder to t = 0
    ts = _KARCHER_LADDER
    table = list(vals)
    for lvl in range(1, len(ts)):
        for i in range(len(ts) - lvl):
            table[i] = (ts[i] * table[i + 1] - ts[i + lvl] * table[i]) / (ts[i] - ts[i + lvl])
    z = herm_part(table[0])

    # polish on the Karcher equation
    scale = 1.0 + float(np.max(np.atleast_1d(fro_norm(z))))
    damping = 1.0
    prev_res = np.inf
    iterations = 0
    for iterations in range(1, max_iter + 1):
        zr, grad, res = _karcher_gradient(z, xs, w)
        if res <= rtol * scale:
            break
        if res > prev_res:
            damping = max(damping / 2, 1 / 64)
        prev_res = res
        z = herm_part(zr @ _herm_exp(damping * grad) @ zr)
    else:
        raise NoConvergence(f"Karcher polish stalled at residual {prev_res:.3e}")
    if return_info:
        return z, {"iterations": iterations, "residual": res}
    return z


def _karcher_vgrad(xs: MatTuple, seed: np.ndarray, w: np.ndarray) -> list[np.ndarray]:
    """Implicit adjoint gradient of the Karcher mean.

    Differentiates the Karcher equation sum w_i log(Z^{-1/2} X_i Z^{-1/2}) = 0
    at the solved mean; the slot adjoints are Daleckii-Krein logarithm
    sandwiches and the Z-block is inverted on the Hermitian basis.
    """
    xs_flat = tuple(np.asarray(x, dtype=complex) for x in xs)
    z = karcher_mean(xs_flat, tuple(w))
    _, rinv = _roots(z)
    t_map = dk_map(z, lambda x: 1.0 / np.sqrt(x), lambda x: -0.5 * np.power(x, -1.5))
    ms = [herm_part(rinv @ xi @ rinv) for xi in xs_flat]
    dlogs = [dk_map(m, np.log, lambda x: 1.0 / x) for m in ms]

    def psi_z_adjoint(u: np.ndarray) -> np.ndarray:
        acc = np.zeros_like(u)
        for wi, xi, dlog in zip(w, xs_flat, dlogs):
            acc = acc + wi * herm_part(xi @ rinv @ dlog(u)) * 2
        return herm_part(t_map(acc))

    u = solve_linear_map(psi_z_adjoint, herm_part(seed))
    return [herm_part(-wi * rinv @ dlog(u) @ rinv) for wi, dlog in zip(w, dlogs)]


def karcher_mean_fn(weights: tuple[float, ...]) -> FreeFn:
    w = _check_weights(weights)
    return FreeFn(
        name="karcher",
        arity=w.size,
        evaluator=lambda xs: karcher_mean(xs, tuple(w)),
        vgrad=lambda xs, seed: _karcher_vgrad(xs, seed, w),
    )


# ---------------------------------------------------------------------------
# Moebius transformations


@dataclass(frozen=True)
class MobiusMap:
    """x -> (a x + b) / (c x + d) with a d - b c > 0."""

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self) -> None:
        if self.a * self.d - self.b * self.c <= 0:
            raise ValueError("Moebius map requires a d - b c > 0")

    def scalar(self, x):
        return (self.a * x + self.b) / (self.c * x + self.d)


def mobius_apply(g: MobiusMap, x: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """(a X + b I)(c X + d I)^{-1}; raises PoleHit near the pole."""
    x = np.asarray(x, dtype=complex)
    n = x.shape[-1]
    eye = np.eye(n)
    denom = g.c * x + g.d * eye
    sv = np.linalg.svd(denom, compute_uv=False)
    if float(np.min(sv)) <= tol.rank * float(np.max(sv)):
        raise PoleHit("c X + d I is numerically singular")
    return (g.a * x + g.b * eye) @ np.linalg.inv(denom)


def mobius_fn(g: MobiusMap) -> FreeFn:
    def _ev(xs: MatTuple) -> np.ndarray:
        return herm_part(mobius_apply(g, xs[0]))

    det = g.a * g.d - g.b * g.c
    return FreeFn(
        name=f"mobius:{g.a:g},{g.b:g},{g.c:g},{g.d:g}",
        arity=1,
        evaluator=_ev,
        complex_evaluator=lambda xs: mobius_apply(g, xs[0]),
        vgrad=_dk_vgrad(g.scalar, lambda x: det / (g.c * x + g.d) ** 2),
        positive=(g.b >= 0 and g.c >= 0),
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


def frechet_derivative(
    fn: FreeFn,
    x: MatTuple,
    direction: MatTuple,
    h: float | None = None,
    tol: Tolerances = DEFAULT_TOL,
    max_halvings: int = 20,
) -> np.ndarray:
    """Central-difference Frechet derivative DF(X)(H) with step validation.

    The step is halved until two successive Richardson-refined estimates
    agree within the relative ``eq`` tolerance; StepUnderflow is raised when
    the step degrades to the vicinity of roundoff without agreement.
    """
    x = tuple(np.asarray(m, dtype=complex) for m in x)
    direction = tuple(np.asarray(m, dtype=complex) for m in direction)
    if len(direction) != len(x):
        raise ArityMismatch("direction tuple must match the argument tuple")
    norm_x = max(float(np.max(np.atleast_1d(fro_norm(m)))) for m in x)
    step = h if h is not None else 1e-3 * (1.0 + norm_x)
    floor = 1e-10 * (1.0 + norm_x)
    prev = None
    for _ in range(max_halvings):
        est = frechet_many(fn, x, [direction], step)[0]
        if prev is not None:
            gap = float(fro_norm(est - prev))
            if gap <= tol.eq * (1.0 + float(fro_norm(est))):
                return est
        prev = est
        step /= 2
        if step < floor:
            raise StepUnderflow("no stable step found for the Frechet derivative")
    raise StepUnderflow("step halving exhausted without agreement")


# ---------------------------------------------------------------------------
# NC-axiom checking


@dataclass(frozen=True)
class NCAxiomReport:
    unitary_defect: float
    direct_sum_defect: float
    trials: int
    passed: bool
    seed: int


def nc_axiom_check(
    fn: FreeFn,
    n: int,
    trials: int = 100,
    seed: int = 0,
    interval: tuple[float, float] = (0.5, 2.0),
    tol: Tolerances = DEFAULT_TOL,
) -> NCAxiomReport:
    """Test unitary equivariance and direct-sum respect on random inputs."""
    rng = np.random.default_rng(seed)
    c1, c2 = interval
    worst_u = 0.0
    worst_ds = 0.0
    for _ in range(trials):
        x = rand_tuple_interval(rng, fn.arity, n, c1, c2)
        y = rand_tuple_interval(rng, fn.arity, n, c1, c2)
        u = rand_unitary(rng, n)
        fx = fn(x)
        scale = 1.0 + float(fro_norm(fx))
        conj = fn(tuple(dagger(u) @ xi @ u for xi in x))
        worst_u = max(worst_u, float(fro_norm(conj - dagger(u) @ fx @ u)) / scale)
        fz = fn(tuple(block_diag(xi, yi) for xi, yi in zip(x, y)))
        direct = block_diag(fx, fn(y))
        worst_ds = max(worst_ds, float(fro_norm(fz - direct)) / scale)
    passed = worst_u <= tol.eq and worst_ds <= tol.eq
    return NCAxiomReport(
        unitary_defect=worst_u,
        direct_sum_defect=worst_ds,
        trials=trials,
        passed=passed,
        seed=seed,
    )


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


def _parse_weights(spec: str | None, default_k: int = 2) -> tuple[float, ...]:
    if spec is None:
        return tuple([1.0 / default_k] * default_k)
    vals = tuple(float(s) for s in spec.split(","))
    return vals


def resolve_function(identifier: str) -> FreeFn:
    """Resolve a catalogue identifier like ``sqrt`` or ``karcher:w=0.5,0.5``."""
    parts = identifier.split(":")
    head = parts[0]
    kv: dict[str, str] = {}
    positional: list[str] = []
    for p in parts[1:]:
        if "=" in p:
            key, val = p.split("=", 1)
            kv[key] = val
        else:
            positional.append(p)
    try:
        if head in ("sqrt", "log1p", "identity", "xsq"):
            return lift_scalar(head)
        if head == "pow":
            p = float(kv.get("p", positional[0] if positional else "nan"))
            return lift_scalar("pow", p)
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
    except (KeyError, IndexError, ValueError) as exc:
        raise UnknownFunction(f"cannot parse function identifier {identifier!r}: {exc}") from exc
    raise UnknownFunction(f"unknown function identifier {identifier!r}")
