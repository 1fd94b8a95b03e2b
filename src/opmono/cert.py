"""Randomized certification and counterexample search.

Six testers, each for one property of a free function: monotonicity
(``monotone_test``), concavity (``concave_test``), positive derivatives
(``derivative_monotone_test``), the doubling construction
(``doubling_concavity_check``), matrix convexity of the hypograph
(``hypograph_convexity_test``), and the free-function axioms, unitary
equivariance and respect for direct sums (``nc_axiom_check``).  Each draws
seeded random inputs and reports a clean pass, the first counterexample
found (with the inputs stored for replay), or inconclusive.  One rule
(``_tester``) makes every tester inconclusive on a typed error, its text in
``details["error"]``, but for ``BadConfig``, a malformed request (a seed,
trial count or dimension that fails ``matcore.is_count`` among them), which
reaches the caller; ``_report`` does so on a non-finite value.  Identical
seeds and trial counts give byte-identical reports.  A report replays from
its seed and the requested trial count, not from ``trials_run``: the draws
of each trial depend on the count, so a shorter run draws other inputs.

All testers share one pipeline.  One ``sampling.draw`` takes the inputs of
every trial, a fixed plan per trial, with one generator call per distinct
plan entry.  The four Loewner testers (monotone, concave, derivative and
hypograph) take the free-function axioms as given, as ``nc_axiom_check``
tests them: a trial's margins do not change when all its inputs are
conjugated by one unitary, so each trial is drawn as a frame
(``sampling.frame_plan``) in the eigenbasis of its first matrix, which is
diag(lam), and only its other matrices take Haar unitaries.  The linear
algebra of the draws runs once per stack: one ``qr`` of the (m - 1) T
unitaries of T trials of m drawn matrices (m = k for the monotone and
derivative tests, so none for a lift's, and 2k for the concave and
hypograph tests), one more for the hypograph test's isometries, one for
the doubling check and two for the axiom test (its arguments and its
unitaries).  The inputs are evaluated in chunks of 512 rows (the
derivative stencil in blocks of 256 trials).  A function that declares
``FreeFn.scalar`` is evaluated less where ``FreeFn._declared_at`` lets its
declaration be read: a lift's values at the drawn points X = U diag(lam) U*
are U f(diag(lam)) U*, so the monotone, concave and hypograph tests
evaluate only the points they do not draw (B, the mixtures and the
compressions), and a two-argument mean's derivative test takes one
``eigvalsh`` of M per stack and no evaluation.
Every check of a trial has a margin and a bound.  The Loewner testers'
differences P - Q that must be positive semidefinite come as pairs of
``(T, C, d, d)`` stacks, C checks per trial, and one scan (``_scan``)
bounds each by the norms of both terms (``Tolerances``).  It takes the
smallest eigenvalues of P - Q only where one can set the report: on 32
candidates per stack and on the members a per-member Cholesky screen at
the candidates' smallest margin leaves open, or on every member where a
check fails (``_screened``).  The axiom test's margins are minus its two
equality defects.
One routine (``_report``) makes every report from the margins: it stops at
the first violation in trial-major order, and ``worst_margin`` is the
minimum margin over every check up to and including that one.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import wraps
from inspect import signature
from typing import Any, Callable

import numpy as np

from .errors import BadConfig, OpmonoError
from .freefun import FreeFn, _congruence_eig, frechet_many
from .matcore import DEFAULT_TOL, Tolerances, block_diag, cholesky_proves, dagger, fro_norm, is_count, min_eig
from .sampling import (draw, finish_frame, finish_isometry, finish_psd, finish_spd, finish_unitary, frame_plan,
                       from_frame, generator, normal, pair_above, pair_plan, slots, spd_plan, uniform)

__all__ = [
    "CertReport",
    "monotone_test",
    "concave_test",
    "derivative_monotone_test",
    "doubling_concavity_check",
    "hypograph_convexity_test",
    "nc_axiom_check",
]

DEFAULT_INTERVAL = (0.5, 2.0)
_CHUNK = 512
_CANDIDATES = 32  # members per stack whose margins ``_screened`` takes before it screens the others
_TINY = np.finfo(float).tiny
_DOUBLING_WEIGHTS = (0.25, 0.5, 0.75)  # the doubling check's mixing weights lambda, in trial order
_DOUBLING_EPS = (1e-1, 1e-3, 1e-6)  # and its dominance shifts eps, checked at every weight


@dataclass(frozen=True)
class CertReport:
    """Outcome of one randomized property test.

    ``worst_margin`` is the smallest margin the report took (see
    ``_report``); a counterexample stores the violating inputs so the
    verdict can be replayed without the seed.
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
    """F(X) = ``from_frame(u, f(lam))`` at the members X = ``from_frame(u, lam)`` of a declared lift's frame, else None.

    None wherever ``FreeFn._declared_at`` refuses, a mean included: the
    evaluator then takes the points, so a draw outside the domain is
    reported as the evaluator reports it.
    """
    d = fn._declared_at(lam)
    return None if d is None else from_frame(u, d[1])


def _inconclusive(name: str, seed: int, error: str) -> CertReport:
    return CertReport(name, "inconclusive", 0, float(np.nan), seed, details={"error": error})


def _tester(name: str) -> Callable[[Callable[..., CertReport]], Callable[..., CertReport]]:
    """The failure rule of every tester, for the one that reports as ``name``.

    It runs the tester under an ``np.errstate``, so an infinite value reaches
    ``_report``'s non-finite rule, not a warning.  ``BadConfig`` is raised
    only by a malformed request, before any evaluation, and reaches the
    caller; any other ``OpmonoError`` gives the inconclusive report.
    """

    def wrap(test: Callable[..., CertReport]) -> Callable[..., CertReport]:
        @wraps(test)
        def run(*args: Any, **kwargs: Any) -> CertReport:
            try:
                with np.errstate(invalid="ignore", over="ignore"):
                    return test(*args, **kwargs)
            except BadConfig:
                raise
            except OpmonoError as exc:
                call = signature(test).bind(*args, **kwargs)
                call.apply_defaults()
                return _inconclusive(name, call.arguments["seed"], str(exc))

        return run

    return wrap


def _report(
    name: str,
    seed: int,
    margins: np.ndarray,
    bounds: np.ndarray,
    counter: Callable[[int, int, float], dict[str, Any]],
    details: dict[str, np.ndarray] | None = None,
) -> CertReport:
    """The report of every tester on the ``(T, C)`` margins of C checks per trial.

    Check (t, c) fails when its margin lies below its bound.  The report
    stops at the first failure in trial-major order: ``trials_run`` is
    t + 1 and ``counter(t, c, margin)`` builds the counterexample.
    ``worst_margin`` is the minimum margin over all checks up to and
    including the one where the report stops (all checks on a pass).
    ``details`` maps names to per-trial values, each reported as its
    maximum over the trials run.  A margin or bound that is not finite, as
    a non-finite checked difference gives, makes the report inconclusive.
    """
    if not (np.isfinite(margins).all() and np.isfinite(bounds).all()):
        return _inconclusive(name, seed, "non-finite value in a checked difference")
    flat, fails = margins.ravel(), np.flatnonzero(margins < bounds)
    stop = int(fails[0]) if fails.size else flat.size - 1
    worst = float(flat[np.argmin(flat[: stop + 1])]) if flat.size else np.inf
    t, c = divmod(stop, margins.shape[1])
    det = {key: float(np.max(v[: t + 1], initial=0.0)) for key, v in (details or {}).items()}
    if not fails.size:
        return CertReport(name, "pass", len(margins), worst, seed, details=det)
    return CertReport(name, "counterexample", t + 1, worst, seed, counter(t, c, float(flat[stop])), det)


def _scan(
    name: str,
    seed: int,
    tol: Tolerances,
    checks: list[tuple[np.ndarray, np.ndarray | float]],
    counter: Callable[[int, int, float], dict[str, Any]],
    details: dict[str, np.ndarray] | None = None,
) -> CertReport:
    """Report on stacked differences P - Q that must be positive semidefinite.

    ``checks`` holds one pair (P, Q) of ``(T, C_s, d_s, d_s)`` stacks per
    matrix size, Q broadcast against P or 0.  The checks of a trial are
    taken stack by stack, c counting across the stacks; check (t, c)'s
    margin is lambda_min(P - Q) (``_screened``), and its bound -psd
    max(||P||_F + ||Q||_F, tiny), the PSD rule for a checked difference
    (``Tolerances``).  ``_report`` makes the report.
    """
    bounds = [-tol.psd * np.maximum(fro_norm(p) + (fro_norm(q) if np.ndim(q) else 0.0), _TINY) for p, q in checks]
    margins = []
    for (p, q), bound in zip(checks, bounds):
        screened = _screened(p, q, bound)
        if screened is None:  # a check may fail, or a value is not finite: the report reads every margin
            margins = [min_eig(p - q) for p, q in checks]
            break
        margins.append(screened)
    return _report(name, seed, np.concatenate(margins, axis=1), np.concatenate(bounds, axis=1), counter, details)


def _screened(p: np.ndarray, q: np.ndarray | float, bound: np.ndarray) -> np.ndarray | None:
    """lambda_min(Herm(P - Q)) per check, or a level below it where that cannot set the report.

    The margins of the ``_CANDIDATES`` members with the smallest diagonal
    entry, and of those a Cholesky at the level max(their least margin,
    bound) leaves open, are ``min_eig``'s bits; a member the Cholesky proves
    keeps its level (the rule in ``Tolerances``).  None where a margin falls
    below its bound or a value is not finite: a counterexample or an
    inconclusive report needs ``min_eig`` of every member.
    """
    x = p - q
    if not (np.isfinite(x).all() and np.isfinite(bound).all()):
        return None
    flat, floor = x.reshape(-1, *x.shape[2:]), bound.ravel()
    picks = np.arange(len(flat))
    if len(flat) > _CANDIDATES:
        picks = np.argpartition(np.diagonal(flat, axis1=1, axis2=2).real.min(axis=1), _CANDIDATES)[:_CANDIDATES]
    exact = min_eig(flat[picks])
    if np.any(exact < floor[picks]):
        return None
    level = np.maximum(np.min(exact, initial=np.inf), floor)
    unproved = ~cholesky_proves(flat, level)  # overwrites x
    unproved[picks], level[picks] = False, exact
    t, c = np.nonzero(unproved.reshape(bound.shape))
    if t.size:
        pb, qb = np.broadcast_arrays(p, q)
        level[unproved] = min_eig(pb[t, c] - qb[t, c])
    return None if np.any(level < floor) else level.reshape(bound.shape)


@_tester("monotone")
def monotone_test(
    fn: FreeFn,
    n: int,
    trials: int = 1000,
    seed: int = 0,
    tol: Tolerances = DEFAULT_TOL,
    interval: tuple[float, float] = DEFAULT_INTERVAL,
) -> CertReport:
    """Sample ordered pairs A <= B inside the interval and check F(A) <= F(B).

    The NC axioms are taken as given (``nc_axiom_check``): a trial is drawn
    in the eigenbasis of A_1, so A_1 = diag(lam).  A declared lift reads
    F(A) = diag(f(lam)) from A's drawn spectrum (``_lift_values``), and its
    trials take no ``qr``.
    """
    rng = generator(seed)
    c1, c2 = interval
    u, lam, (h, w) = finish_frame(fn.arity, draw(rng, trials, pair_plan(n, c1, c2, fn.arity)))
    a, b = (slots(x, fn.arity) for x in pair_above(from_frame(u, lam), lam, h, w, c2))
    fa = _lift_values(fn, u, lam)
    fa = _chunked_eval(fn, a) if fa is None else fa
    fb = _chunked_eval(fn, b)
    return _scan(
        "monotone", seed, tol, [(fb[:, None], fa[:, None])],
        lambda t, c, m: {"A": _at(a, t), "B": _at(b, t), "margin": m},
    )


@_tester("concave")
def concave_test(
    fn: FreeFn,
    n: int,
    trials: int = 1000,
    seed: int = 0,
    tol: Tolerances = DEFAULT_TOL,
    interval: tuple[float, float] = DEFAULT_INTERVAL,
) -> CertReport:
    """Check the matrix Jensen inequality on random pairs and mixing weights.

    The NC axioms are taken as given (``nc_axiom_check``): a trial is drawn
    in the eigenbasis of A_1, so A_1 = diag(lam).  A declared lift reads
    F(A) and F(B) from the drawn spectra (``_lift_values``) and evaluates
    only the four mixtures.
    """
    rng = generator(seed)
    k = fn.arity
    u, lam, (mix,) = finish_frame(2 * k, draw(rng, trials, frame_plan(n, *interval, 2 * k) + [uniform(0.05, 0.95)]))
    ab = slots(from_frame(u, lam), 2 * k)
    a, b = ab[:k], ab[k:]
    lams = np.column_stack([np.tile((0.25, 0.5, 0.75), (trials, 1)), mix])
    w = lams[..., None, None]
    mixes = tuple((1 - w) * ai[:, None] + w * bi[:, None] for ai, bi in zip(a, b))
    graph = _lift_values(fn, u, lam)
    if graph is None:  # per trial, in this order: A, B and the four mixtures, 6 rows
        rows = tuple(np.concatenate([ai[:, None], bi[:, None], mi], axis=1) for ai, bi, mi in zip(a, b, mixes))
        vals = _chunked_eval(fn, tuple(r.reshape(-1, n, n) for r in rows)).reshape(-1, 6, n, n)
    else:
        fmix = _chunked_eval(fn, tuple(mi.reshape(-1, n, n) for mi in mixes)).reshape(-1, 4, n, n)
        vals = np.concatenate([graph.reshape(-1, 2, n, n), fmix], axis=1)
    return _scan(
        "concave", seed, tol, [(vals[:, 2:], (1 - w) * vals[:, :1] + w * vals[:, 1:2])],
        lambda t, c, m: {"A": _at(a, t), "B": _at(b, t), "lambda": float(lams[t, c]), "margin": m},
    )


def _loewner_counter(x: tuple[np.ndarray, ...], slot: int, margin: float) -> dict[str, Any]:
    """The counterexample at X whose H is (C 1)(C 1)* / ||(C 1)(C 1)*||_F in ``slot`` and 0 elsewhere.

    1 is the all-ones vector.  Where DF(X)[H] = C (Theta o C^{-1} H C^{-*}) C*
    with Theta the Loewner matrix of that slot, DF(X)[H] is C Theta C* over
    the norm, congruent to the failing Theta: C = I for a lift at X =
    diag(lam), and for a mean the L U that ``freefun._congruence_eig``
    gives for this X alone.
    """
    c = np.eye(len(x[0]), dtype=complex) if len(x) == 1 else _congruence_eig(*x)[0]
    ones = c.sum(axis=-1)
    h = np.outer(ones, np.conj(ones))
    hs = [np.zeros_like(h) for _ in x]
    hs[slot] = h / fro_norm(h)
    return {"X": x, "H": tuple(hs), "margin": margin}


@_tester("derivative")
def derivative_monotone_test(
    fn: FreeFn,
    n: int,
    trials: int = 500,
    seed: int = 0,
    tol: Tolerances = DEFAULT_TOL,
    interval: tuple[float, float] = DEFAULT_INTERVAL,
) -> CertReport:
    """Check DF(X)(H) >= 0 at random interior points and PSD directions.

    The NC axioms are taken as given (``nc_axiom_check``): a trial is drawn
    in the eigenbasis of X_1, so X_1 = diag(lam).  Where
    ``FreeFn._declared_at`` reads the declaration ``fn.scalar`` = (f, f')
    at the frame, each trial scans the Loewner matrices of f on its s
    (``FreeFn._loewner``), at the plain ``tol``, with no evaluation
    (Daleckii-Krein; Schur's product theorem makes each condition exact):

    * a lift, X = diag(lam): DF(X)[H] = Phi o H, Phi the Loewner matrix of
      f on the drawn spectrum lam, is PSD for every PSD H exactly when Phi
      is.  No Gaussian is drawn and no ``qr`` taken.
    * a two-argument mean, F(A, B) = L f(M) L* with A = L L* and
      M = L^{-1} B L^{-*} = U diag(w) U*:
      DF(A, B)[H_A, H_B] = L U (Psi o K_A + Phi o K_B) U* L*, K_. =
      U* L^{-1} H_. L^{-*} U, Phi the Loewner matrix of f on w and Psi that
      of the transpose x f(1/x) on 1/w.  [Psi, Phi] need only s = w, which
      the rule forms entrywise from A = diag(lam_1), one ``eigvalsh`` per
      stack.

    A counterexample's H is C 1 1* C* normalized in the failing slot
    (``_loewner_counter``).  Any other draw or function takes a Richardson
    stencil, 4 evaluations per trial in blocks of 256 trials, whose scan
    allows 10 ``psd`` for the differences; so a draw outside the domain is
    reported as the evaluator reports it.
    """
    rng = generator(seed)
    c1, c2 = interval
    pad = 0.15 * (c2 - c1)
    k = fn.arity
    # the frame comes before the directions in the stream, so every path draws the same X
    u, lam, _ = finish_frame(k, draw(rng, trials, frame_plan(n, c1 + pad, c2 - pad, k)))
    x = slots(from_frame(u, lam), k)
    declared = fn._declared_at(lam, x[1] if k == 2 else None)
    if declared is not None:
        return _scan(
            "derivative", seed, tol, [(np.stack(fn._loewner(declared[0]), axis=1), 0.0)],
            lambda t, c, m: _loewner_counter(_at(x, t), c, m),
        )
    (g,) = draw(rng, trials, [normal(2, n, n)] * k)
    h = finish_psd(g).reshape(trials, k, n, n)
    h = h / np.max(fro_norm(h), axis=1)[:, None, None, None]
    step = 1e-3 * (1.0 + c2)
    deriv = np.empty((trials, 1, n, n), dtype=complex)
    for lo in range(0, trials, 256):  # one batched stencil, 1024 rows, per 256 trials
        block = tuple(xi[lo : lo + 256] for xi in x)
        deriv[lo : lo + 256, 0] = frechet_many(fn, block, h[lo : lo + 256], step)
    return _scan(
        "derivative", seed, replace(tol, psd=10 * tol.psd), [(deriv, 0.0)],  # the stencil's allowance
        lambda t, c, m: {"X": _at(x, t), "H": tuple(hi.copy() for hi in h[t]), "margin": m},
    )


@_tester("doubling")
def doubling_concavity_check(
    fn: FreeFn,
    n: int,
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
    one pair at one weight, ``trials`` per weight, at the weights
    lam = 1/4, 1/2, 3/4 in this order, each with the shifts eps = 1e-1,
    1e-3, 1e-6.
    """
    rng, k = generator(seed), fn.arity
    ab = slots(finish_spd(*draw(rng, trials, spd_plan(n, *interval) * (2 * len(_DOUBLING_WEIGHTS) * k))), 2 * k)
    a, b, eye = ab[:k], ab[k:], np.eye(n)
    g = np.asarray(_DOUBLING_WEIGHTS)[:, None, None]
    rot = np.block([[np.sqrt(g) * eye, -np.sqrt(1 - g) * eye], [np.sqrt(1 - g) * eye, np.sqrt(g) * eye]])
    unit_defect = fro_norm(dagger(rot) @ rot - np.eye(2 * n))
    v, lam = np.repeat(rot, trials, axis=0), np.repeat(g, trials, axis=0)
    block_defect, dom, conjs = np.zeros(len(lam)), [], []
    for ai, bi in zip(a, b):
        conj = dagger(v) @ block_diag(ai, bi) @ v
        mix = lam * ai + (1 - lam) * bi
        anti = (1 - lam) * ai + lam * bi
        d = -np.sqrt(lam * (1 - lam)) * (bi - ai)
        block_defect = np.maximum(block_defect, fro_norm(conj - np.block([[mix, -d], [-d, anti]])))
        dom += [block_diag(mix + eps * eye, 2 * (anti + (d @ d) / eps)) for eps in _DOUBLING_EPS]
        conjs += [conj] * len(_DOUBLING_EPS)
    eps = np.asarray(_DOUBLING_EPS)[:, None, None]
    shifted = tuple((lam * ai + (1 - lam) * bi)[:, None] + eps * eye for ai, bi in zip(a, b))
    fa, fb = _chunked_eval(fn, a), _chunked_eval(fn, b)
    fs = _chunked_eval(fn, tuple(s.reshape(-1, n, n) for s in shifted))
    jensen = (fs.reshape(len(lam), -1, n, n), (lam * fa + (1 - lam) * fb)[:, None])
    return _scan(
        "doubling", seed, tol, [(np.stack(dom, axis=1), np.stack(conjs, axis=1)), jensen],
        lambda t, c, m: {
            "A": _at(a, t), "B": _at(b, t), "lambda": _DOUBLING_WEIGHTS[t // trials],
            "eps": _DOUBLING_EPS[c % len(_DOUBLING_EPS)], "margin": m,
        },
        {"unitarity_defect": np.repeat(unit_defect, trials), "block_defect": block_defect},
    )


@_tester("hypograph")
def hypograph_convexity_test(
    fn: FreeFn,
    n: int,
    m: int,
    trials: int = 500,
    seed: int = 0,
    tol: Tolerances = DEFAULT_TOL,
    interval: tuple[float, float] = DEFAULT_INTERVAL,
) -> CertReport:
    """Matrix convexity of the hypograph: one compression V*(X (+) X2)V of two members per trial.

    A set of tuples is matrix convex when it holds V*(X (+) X2)V for each
    two of its members X, X2 at size n and each isometry V : C^m -> C^2n,
    and a free function is operator concave exactly when its hypograph is
    matrix convex (Effros & Winkler, *J. Funct. Anal.* 144, 1997).  With
    V = [V1; V2] drawn Haar (``sampling.finish_isometry``), each trial
    checks, slot by slot, F(V*(X (+) X2)V) >= V*(F(X) (+) F(X2))V, that is
    F(V1* X V1 + V2* X2 V2) >= V1* F(X) V1 + V2* F(X2) V2.  The compressions of one member (V2 = 0) and, at m = n,
    the convex combinations of two (V1 = sqrt(1 - lam) I, V2 = sqrt(lam) I)
    are the special cases.  The NC axioms are taken as given
    (``nc_axiom_check``): a trial is drawn in the eigenbasis of X_1, so
    X_1 = diag(lam).  The members are graph points (F(X), X): a PSD slack
    below the graph only adds a PSD term to the checked difference, so the
    graph is the worst member (the Jensen operator inequality; Hansen &
    Pedersen, *Math. Ann.* 258, 1982).  A declared lift reads the graph
    values F(X) and F(X2) from the drawn spectra (``_lift_values``) and
    evaluates only the compressions.  ``m`` must be an integer in 1..n
    (``matcore.is_count``), else BadConfig, as must every tester's ``n``
    and ``trials`` be integers of at least 1, which ``sampling`` refuses
    where it draws.
    """
    if not (is_count(m, 1) and m <= n):
        raise BadConfig(f"isometry target dimension m = {m} must lie in 1..{n}")
    rng = generator(seed)
    k = fn.arity
    # per trial, in stream order: the frame of X and X2, then V
    u, spec, (iso,) = finish_frame(2 * k, draw(rng, trials, frame_plan(n, *interval, 2 * k) + [normal(2, 2 * n, m)]))
    both = slots(from_frame(u, spec), 2 * k)
    x, x2 = both[:k], both[k:]
    v = finish_isometry(iso)
    graph = _lift_values(fn, u, spec)
    y, y2 = (_chunked_eval(fn, x), _chunked_eval(fn, x2)) if graph is None else slots(graph, 2)
    fcomp = _chunked_eval(fn, tuple(dagger(v) @ block_diag(a, b) @ v for a, b in zip(x, x2)))
    return _scan(
        "hypograph", seed, tol, [(fcomp[:, None], (dagger(v) @ block_diag(y, y2) @ v)[:, None])],
        lambda t, c, m: {"X": _at(x, t), "Y": y[t].copy(), "X2": _at(x2, t), "Y2": y2[t].copy(), "V": v[t].copy(),
                         "margin": m},
    )


@_tester("nc-axioms")
def nc_axiom_check(
    fn: FreeFn,
    n: int,
    trials: int = 100,
    seed: int = 0,
    tol: Tolerances = DEFAULT_TOL,
    interval: tuple[float, float] = DEFAULT_INTERVAL,
) -> CertReport:
    """Test the free-function axioms: unitary equivariance and respect for direct sums.

    Each trial draws X and Y in the interval and a Haar unitary U, and has
    two checks, with defects ||F(U* X U) - U* F(X) U||_F and ||F(X (+) Y)
    - F(X) (+) F(Y)||_F, each over 1 + ||F(X)||_F.  A check fails where its
    defect exceeds ``tol.eq``; its margin is minus the defect.  ``details``
    reports each defect's maximum over the trials run.
    """
    rng = generator(seed)
    k = fn.arity
    z, lam, g = draw(rng, trials, spd_plan(n, *interval) * (2 * k) + [normal(2, n, n)])
    xys = finish_spd(z, lam).reshape(trials, 2, k, n, n)
    x, y = slots(xys[:, 0], k), slots(xys[:, 1], k)
    u = finish_unitary(g)
    fx, fy = _chunked_eval(fn, x), _chunked_eval(fn, y)
    conj = _chunked_eval(fn, tuple(dagger(u) @ xi @ u for xi in x))
    fz = _chunked_eval(fn, tuple(block_diag(xi, yi) for xi, yi in zip(x, y)))
    defects = np.stack([fro_norm(conj - dagger(u) @ fx @ u), fro_norm(fz - block_diag(fx, fy))], axis=1)
    defects /= (1.0 + fro_norm(fx))[:, None]
    return _report(
        "nc-axioms", seed, -defects, np.full_like(defects, -tol.eq),
        lambda t, c, m: {"X": _at(x, t), "Y": _at(y, t), "U": u[t].copy(), "kind": ("unitary", "direct_sum")[c],
                         "margin": m},
        {"unitary_defect": defects[:, 0], "direct_sum_defect": defects[:, 1]},
    )
