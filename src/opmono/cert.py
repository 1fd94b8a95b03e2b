"""Randomized certification and counterexample search.

Each tester draws seeded random inputs, checks a Loewner-order property of
a free function, and reports a clean pass, the first counterexample found
(with the inputs stored for replay), or inconclusive when evaluation failed
or gave a non-finite value.  Identical seeds and trial counts give
byte-identical reports.  A report replays from its seed and the requested
trial count, not from ``trials_run``: the draws of each trial depend on the
count, so a shorter run draws other inputs.

All testers share one pipeline.  One ``sampling.draw`` takes the inputs of
every trial, a fixed plan per trial, with one generator call per distinct
plan entry; the linear algebra of the draws runs once per stack: one
``qr`` per tester call, two for the hypograph test (its arguments and its
isometries), none for the derivative test of a one-variable lift, which
checks the Loewner matrices of the drawn spectra and forms no X.  The
inputs are evaluated in chunks of 512 rows (the derivative stencil in
blocks of 256 trials).  A function that declares ``FreeFn.scalar`` is
evaluated less where ``FreeFn._declared_at`` lets its declaration be read:
a lift's values at the drawn points X = U diag(lam) U* are
U f(diag(lam)) U*, so the monotone, concave and hypograph tests evaluate
only the points they do not draw (B, the mixtures, the compressions and
the combinations), and a two-argument mean's derivative test takes one
``cholesky`` and one ``eigh`` per stack and no evaluation.  The
differences that must be positive semidefinite form ``(T, C, d, d)``
stacks, C checks per trial, and one scan (``_scan``) takes their smallest
eigenvalues and norms in one batched call per stack.  It stops at the
first violation in trial-major order; ``worst_margin`` is the minimum
margin over every check up to and including that one.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable

import numpy as np

from .errors import BadConfig, OpmonoError
from .freefun import FreeFn, _congruence_eig, _loewner_pair, frechet_many
from .gradients import loewner_matrix
from .matcore import DEFAULT_TOL, Tolerances, block_diag, dagger, fro_norm, min_eig, psd_floor
from .sampling import (draw, finish_isometry, finish_psd, finish_spd, finish_unitary, from_spectrum, normal,
                       pair_above, pair_plan, slots, spd_plan, uniform)

__all__ = [
    "CertReport",
    "monotone_test",
    "concave_test",
    "derivative_monotone_test",
    "doubling_concavity_check",
    "hypograph_convexity_test",
]

DEFAULT_INTERVAL = (0.5, 2.0)
_CHUNK = 512


@dataclass(frozen=True)
class CertReport:
    """Outcome of one randomized property test.

    ``worst_margin`` is the smallest eigenvalue margin the scan took (see
    ``_scan``); a counterexample stores the violating inputs so the verdict
    can be replayed without the seed.
    """

    property_name: str
    verdict: str  # "pass" | "counterexample" | "inconclusive"
    trials_run: int
    worst_margin: float
    seed: int
    counterexample: dict[str, Any] | None = None
    details: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if (self.verdict == "counterexample") != (self.counterexample is not None):
            raise ValueError("counterexample present iff verdict is 'counterexample'")

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


def _at(xs: tuple[np.ndarray, ...], t: int) -> tuple[np.ndarray, ...]:
    """Trial t of per-slot stacks as the argument tuple it was, copied out of the stacks."""
    return tuple(x[t].copy() for x in xs)


def _chunked_eval(fn: FreeFn, xs: tuple[np.ndarray, ...]) -> np.ndarray:
    """Evaluate fn on stacked argument tuples, _CHUNK rows per call."""
    out = np.empty(xs[0].shape, dtype=complex)
    for lo in range(0, len(out), _CHUNK):
        out[lo : lo + _CHUNK] = fn(tuple(x[lo : lo + _CHUNK] for x in xs))
    return out


def _lift_values(fn: FreeFn, u: np.ndarray, lam: np.ndarray) -> np.ndarray | None:
    """F(X) = Herm(U f(lam) U*) at drawn points X = Herm(U diag(lam) U*) of a declared lift, else None.

    The declaration is read only under ``FreeFn._declared_at``'s rule;
    otherwise the evaluator takes the points, so a draw outside the domain
    is reported as the evaluator reports it.
    """
    d = fn._declared_at(lam) if fn.arity == 1 else None
    return None if d is None else from_spectrum(u, d)


def _inconclusive(name: str, seed: int, error: str) -> CertReport:
    return CertReport(name, "inconclusive", 0, float(np.nan), seed, details={"error": error})


def _scan(
    name: str,
    seed: int,
    tol: Tolerances,
    checks: list[np.ndarray],
    counter: Callable[[int, int, float], dict[str, Any]],
    details: dict[str, np.ndarray] | None = None,
) -> CertReport:
    """Report on stacked differences that must be positive semidefinite.

    ``checks`` holds one ``(T, C_s, d_s, d_s)`` stack per matrix size.  The
    checks of a trial are taken stack by stack, the trials in order; check
    (t, c) fails when lambda_min < -psd_floor(difference, tol).  The scan
    stops at the first failure: ``trials_run`` is t + 1 and
    ``counter(t, c, lambda_min)`` builds the counterexample, c counting
    across the stacks.  ``worst_margin`` is the minimum of lambda_min over
    all checks up to and including the one where the scan stops (all
    checks on a pass).  ``details`` maps names to per-trial values, each
    reported as its maximum over the trials run.  A non-finite difference
    gives an inconclusive report before any eigenvalue is taken.
    """
    if not all(np.isfinite(c).all() for c in checks):
        return _inconclusive(name, seed, "non-finite value in a checked difference")
    margins = np.concatenate([min_eig(c) for c in checks], axis=1)
    bounds = np.concatenate([-psd_floor(c, tol) for c in checks], axis=1)
    flat, fails = margins.ravel(), np.flatnonzero(margins < bounds)
    stop = int(fails[0]) if fails.size else flat.size - 1
    worst = float(flat[np.argmin(flat[: stop + 1])]) if flat.size else np.inf
    t, c = divmod(stop, margins.shape[1])
    det = {key: float(np.max(v[: t + 1], initial=0.0)) for key, v in (details or {}).items()}
    if not fails.size:
        return CertReport(name, "pass", len(margins), worst, seed, details=det)
    return CertReport(name, "counterexample", t + 1, worst, seed, counter(t, c, float(flat[stop])), det)


def monotone_test(
    fn: FreeFn,
    n: int,
    trials: int = 1000,
    seed: int = 0,
    tol: Tolerances = DEFAULT_TOL,
    interval: tuple[float, float] = DEFAULT_INTERVAL,
) -> CertReport:
    """Sample ordered pairs A <= B inside the interval and check F(A) <= F(B).

    A declared lift reads F(A) from A's drawn spectrum (``_lift_values``).
    """
    rng = np.random.default_rng(seed)
    c1, c2 = interval
    z, lam, h, w = draw(rng, trials * fn.arity, pair_plan(n, c1, c2))
    u = finish_unitary(z)
    a, b = (slots(x, fn.arity) for x in pair_above(from_spectrum(u, lam), h, w, c2))
    fa = _lift_values(fn, u, lam)
    try:
        fa = _chunked_eval(fn, a) if fa is None else fa
        diff = _chunked_eval(fn, b) - fa
    except OpmonoError as exc:
        return _inconclusive("monotone", seed, str(exc))
    return _scan(
        "monotone", seed, tol, [diff[:, None]],
        lambda t, c, m: {"A": _at(a, t), "B": _at(b, t), "margin": m},
    )


def concave_test(
    fn: FreeFn,
    n: int,
    trials: int = 1000,
    seed: int = 0,
    tol: Tolerances = DEFAULT_TOL,
    interval: tuple[float, float] = DEFAULT_INTERVAL,
) -> CertReport:
    """Check the matrix Jensen inequality on random pairs and mixing weights.

    A declared lift reads F(A) and F(B) from the drawn spectra
    (``_lift_values``) and evaluates only the four mixtures.
    """
    rng = np.random.default_rng(seed)
    k = fn.arity
    z, lam, mix = draw(rng, trials, spd_plan(n, *interval) * (2 * k) + [uniform(0.05, 0.95)])
    u = finish_unitary(z)
    ab = slots(from_spectrum(u, lam), 2 * k)
    a, b = ab[:k], ab[k:]
    lams = np.column_stack([np.tile((0.25, 0.5, 0.75), (trials, 1)), mix])
    w = lams[..., None, None]
    mixes = tuple((1 - w) * ai[:, None] + w * bi[:, None] for ai, bi in zip(a, b))
    graph = _lift_values(fn, u, lam)
    try:
        if graph is None:  # per trial, in this order: A, B and the four mixtures, 6 rows
            rows = tuple(np.concatenate([ai[:, None], bi[:, None], mi], axis=1) for ai, bi, mi in zip(a, b, mixes))
            vals = _chunked_eval(fn, tuple(r.reshape(-1, n, n) for r in rows)).reshape(-1, 6, n, n)
        else:
            fmix = _chunked_eval(fn, tuple(mi.reshape(-1, n, n) for mi in mixes)).reshape(-1, 4, n, n)
            vals = np.concatenate([graph.reshape(-1, 2, n, n), fmix], axis=1)
    except OpmonoError as exc:
        return _inconclusive("concave", seed, str(exc))
    diff = vals[:, 2:] - ((1 - w) * vals[:, :1] + w * vals[:, 1:2])
    return _scan(
        "concave", seed, tol, [diff],
        lambda t, c, m: {"A": _at(a, t), "B": _at(b, t), "lambda": float(lams[t, c]), "margin": m},
    )


def _loewner_counter(x: tuple[np.ndarray, ...], c: np.ndarray, slot: int, margin: float) -> dict[str, Any]:
    """The counterexample at X whose H is (C 1)(C 1)* / ||(C 1)(C 1)*||_F in ``slot`` and 0 elsewhere.

    1 is the all-ones vector.  Where DF(X)[H] = C (Theta o C^{-1} H C^{-*}) C*
    with Theta the Loewner matrix of that slot, DF(X)[H] is C Theta C* over
    the norm, congruent to the failing Theta.
    """
    ones = c.sum(axis=-1)
    h = np.outer(ones, np.conj(ones))
    hs = [np.zeros_like(h) for _ in x]
    hs[slot] = h / fro_norm(h)
    return {"X": x, "H": tuple(hs), "margin": margin}


def derivative_monotone_test(
    fn: FreeFn,
    n: int,
    trials: int = 500,
    seed: int = 0,
    tol: Tolerances = DEFAULT_TOL,
    interval: tuple[float, float] = DEFAULT_INTERVAL,
) -> CertReport:
    """Check DF(X)(H) >= 0 at random interior points and PSD directions.

    A function that declares ``fn.scalar`` = (f, f') is checked on Loewner
    matrices of f, at the plain ``tol``, with no evaluation (Daleckii-Krein;
    Schur's product theorem makes each condition exact):

    * a lift, X = U diag(lam) U*: DF(X)[H] = U (Phi o U* H U) U*, Phi the
      Loewner matrix of f on the drawn spectrum lam, is PSD for every PSD H
      exactly when Phi is.  No X is formed but a counterexample's.
    * a two-argument mean, F(A, B) = L f(M) L* with A = L L* and
      M = L^{-1} B L^{-*} = U diag(w) U* (``freefun._congruence_eig``):
      DF(A, B)[H_A, H_B] = L U (Psi o K_A + Phi o K_B) U* L*, K_. =
      U* L^{-1} H_. L^{-*} U, Phi the Loewner matrix of f on w and Psi that
      of the transpose x f(1/x) on 1/w (``freefun._loewner_pair``).  Each
      trial scans [Psi, Phi].

    A counterexample's H is C 1 1* C* normalized in the failing slot, C = U
    or L U (``_loewner_counter``).  Either path is taken only under
    ``FreeFn._declared_at``'s rule.  Any other draw or function takes a
    Richardson stencil, 4 evaluations per trial in blocks of 256 trials,
    whose scan allows 10 ``psd`` for the differences; so a draw outside the
    domain is reported as the evaluator reports it.
    """
    rng = np.random.default_rng(seed)
    c1, c2 = interval
    pad = 0.15 * (c2 - c1)
    k = fn.arity
    # the spectra come before the directions in the stream, so every path draws the same X
    z, lam = draw(rng, trials, spd_plan(n, c1 + pad, c2 - pad) * k)
    declared = fn._declared_at(lam) is not None
    if declared and k == 1:
        return _scan(
            "derivative", seed, tol, [loewner_matrix(lam, *fn.scalar)[:, None]],
            lambda t, c, m: _loewner_counter((finish_spd(z[t], lam[t]),), finish_unitary(z[t]), c, m),
        )
    x = slots(finish_spd(z, lam), k)
    if declared and k == 2:
        try:
            lu, _, _, w = _congruence_eig(*x)
        except OpmonoError as exc:
            return _inconclusive("derivative", seed, str(exc))
        return _scan(
            "derivative", seed, tol, [np.stack(_loewner_pair(w, *fn.scalar), axis=1)],
            lambda t, c, m: _loewner_counter(_at(x, t), lu[t], c, m),
        )
    (g,) = draw(rng, trials, [normal(2, n, n)] * k)
    h = finish_psd(g).reshape(trials, k, n, n)
    h = h / np.max(fro_norm(h), axis=1)[:, None, None, None]
    step = 1e-3 * (1.0 + c2)
    deriv = np.empty((trials, 1, n, n), dtype=complex)
    try:
        for lo in range(0, trials, 256):  # one batched stencil, 1024 rows, per 256 trials
            block = tuple(xi[lo : lo + 256] for xi in x)
            deriv[lo : lo + 256, 0] = frechet_many(fn, block, h[lo : lo + 256], step)
    except OpmonoError as exc:
        return _inconclusive("derivative", seed, str(exc))
    return _scan(
        "derivative", seed, replace(tol, psd=10 * tol.psd), [deriv],  # the stencil's allowance
        lambda t, c, m: {"X": _at(x, t), "H": tuple(hi.copy() for hi in h[t]), "margin": m},
    )


def doubling_concavity_check(
    fn: FreeFn,
    n: int,
    lambda_grid: tuple[float, ...] = (0.25, 0.5, 0.75),
    eps_ladder: tuple[float, ...] = (1e-1, 1e-3, 1e-6),
    trials: int = 100,
    seed: int = 0,
    tol: Tolerances = DEFAULT_TOL,
    interval: tuple[float, float] = DEFAULT_INTERVAL,
) -> CertReport:
    """Exercise the doubling construction behind monotone => concave.

    For each pair and mixing weight this builds the rotation

        V = [[lam^{1/2} I, -(1-lam)^{1/2} I], [(1-lam)^{1/2} I, lam^{1/2} I]]

    and verifies (i) V is unitary, (ii) the conjugation V* diag(A, B) V has
    the mixed block form, (iii) the dominance by diag(mix + eps I, 2Z) for
    Z = (1-lam) A + lam B + D^2 / eps, and (iv) the shifted Jensen
    inequality that follows by monotonicity at doubled size.  A trial is
    one pair at one weight, ``trials`` per weight, weights in grid order.
    The weights must lie in [0, 1] and the shifts eps be positive.
    """
    if not (eps_ladder and all(0 < e < np.inf for e in eps_ladder) and all(0 <= w <= 1 for w in lambda_grid)):
        raise BadConfig(f"need weights in [0, 1] and positive finite eps, got {lambda_grid} and {eps_ladder}")
    rng = np.random.default_rng(seed)
    k, eye = fn.arity, np.eye(n)
    ab = slots(finish_spd(*draw(rng, 2 * len(lambda_grid) * trials * k, spd_plan(n, *interval))), 2 * k)
    a, b = ab[:k], ab[k:]
    g = np.asarray(lambda_grid, dtype=float)[:, None, None]
    rot = np.block([[np.sqrt(g) * eye, -np.sqrt(1 - g) * eye], [np.sqrt(1 - g) * eye, np.sqrt(g) * eye]])
    unit_defect = fro_norm(dagger(rot) @ rot - np.eye(2 * n))
    v, lam = np.repeat(rot, trials, axis=0), np.repeat(g, trials, axis=0)
    block_defect, dom = np.zeros(len(lam)), []
    for ai, bi in zip(a, b):
        conj = dagger(v) @ block_diag(ai, bi) @ v
        mix = lam * ai + (1 - lam) * bi
        anti = (1 - lam) * ai + lam * bi
        d = -np.sqrt(lam * (1 - lam)) * (bi - ai)
        block_defect = np.maximum(block_defect, fro_norm(conj - np.block([[mix, -d], [-d, anti]])))
        dom += [block_diag(mix + eps * eye, 2 * (anti + (d @ d) / eps)) - conj for eps in eps_ladder]
    eps = np.asarray(eps_ladder, dtype=float)[:, None, None]
    shifted = tuple((lam * ai + (1 - lam) * bi)[:, None] + eps * eye for ai, bi in zip(a, b))
    try:
        fa, fb = _chunked_eval(fn, a), _chunked_eval(fn, b)
        fs = _chunked_eval(fn, tuple(s.reshape(-1, n, n) for s in shifted))
    except OpmonoError as exc:
        return _inconclusive("doubling", seed, str(exc))
    jensen = fs.reshape(len(lam), -1, n, n) - (lam * fa + (1 - lam) * fb)[:, None]
    return _scan(
        "doubling", seed, tol, [np.stack(dom, axis=1), jensen],
        lambda t, c, m: {
            "A": _at(a, t), "B": _at(b, t), "lambda": lambda_grid[t // trials],
            "eps": eps_ladder[c % len(eps_ladder)], "margin": m,
        },
        {"unitarity_defect": np.repeat(unit_defect, trials), "block_defect": block_defect},
    )


def hypograph_convexity_test(
    fn: FreeFn,
    n: int,
    m: int,
    trials: int = 500,
    seed: int = 0,
    tol: Tolerances = DEFAULT_TOL,
    interval: tuple[float, float] = DEFAULT_INTERVAL,
) -> CertReport:
    """Isometry compressions and convex combinations of hypograph members.

    Compressions by random isometries V : C^m -> C^n and scalar convex
    combinations of two members must stay members.  The members are graph
    points (F(X), X): a PSD slack below the graph only adds a PSD term to
    each checked difference, so the graph is the worst member (the Jensen
    operator inequality; Hansen & Pedersen, *Math. Ann.* 258, 1982).  A
    declared lift reads the graph values F(X) and F(X2) from the drawn
    spectra (``_lift_values``) and evaluates only the compressions and the
    combinations.
    """
    if not 0 < m <= n:
        raise BadConfig(f"isometry target dimension m = {m} must lie in 1..{n}")
    rng = np.random.default_rng(seed)
    k = fn.arity
    # per trial, in stream order: X, X2, V, lambda
    plan = spd_plan(n, *interval) * (2 * k) + [normal(2, n, m), uniform(0.0, 1.0)]
    z, spec, iso, mix = draw(rng, trials, plan)
    u = finish_unitary(z)
    both = slots(from_spectrum(u, spec), 2 * k)
    x, x2 = both[:k], both[k:]
    lam = mix[:, None, None]
    v = finish_isometry(iso)
    graph = _lift_values(fn, u, spec)
    try:
        y, y2 = (_chunked_eval(fn, x), _chunked_eval(fn, x2)) if graph is None else slots(graph, 2)
        fcomp = _chunked_eval(fn, tuple(dagger(v) @ xi @ v for xi in x))
        fmix = _chunked_eval(fn, tuple((1 - lam) * ai + lam * bi for ai, bi in zip(x, x2)))
    except OpmonoError as exc:
        return _inconclusive("hypograph", seed, str(exc))
    comp_diff = fcomp - dagger(v) @ y @ v
    mix_diff = fmix - ((1 - lam) * y + lam * y2)
    return _scan(
        "hypograph", seed, tol, [comp_diff[:, None], mix_diff[:, None]],
        lambda t, c, m: [
            {"X": _at(x, t), "Y": y[t].copy(), "V": v[t].copy(), "margin": m, "kind": "isometry"},
            {"X": _at(x, t), "Y": y[t].copy(), "X2": _at(x2, t), "Y2": y2[t].copy(), "lambda": float(lam[t, 0, 0]),
             "margin": m, "kind": "combination"},
        ][c],
    )
