"""Randomized certification and counterexample search.

Each tester draws seeded random inputs, checks a Loewner-order property of
a free function, and reports a clean pass, the first counterexample found
(with the inputs stored for replay), or inconclusive when evaluation failed
or gave a non-finite value.  Identical seeds give byte-identical reports.

All testers share one pipeline.  The generator calls are made trial by
trial and matrix by matrix, so the seed pins the draw order; the linear
algebra of the draws then runs once over the whole stack (``sampling``):
one ``qr`` per tester call, two for the hypograph test.  The inputs are
evaluated in chunks of 512 rows (the derivative stencil in blocks of 256
trials).  The differences that must be positive semidefinite form
``(T, C, d, d)`` stacks, C checks per trial, and one scan (``_scan``) takes
their smallest eigenvalues and norms in one batched call per stack.  It
stops at the first violation in trial-major order; ``worst_margin`` is the
minimum margin over every check up to and including that one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from .errors import BadConfig, ChainNotIncreasing, OpmonoError
from .freefun import FreeFn, frechet_many
from .matcore import DEFAULT_TOL, Tolerances, block_diag, dagger, fro_norm, herm_part, min_eig
from .sampling import (draw_gaussian, draw_pair, draw_spd, finish_isometry, finish_pair, finish_psd,
                       finish_spd, rand_psd, rand_tuple_interval, slots, stack_draws)

__all__ = [
    "CertReport",
    "HypoSample",
    "hypograph_member",
    "LipschitzReport",
    "monotone_test",
    "concave_test",
    "derivative_monotone_test",
    "doubling_concavity_check",
    "hypograph_convexity_test",
    "lipschitz_estimate",
    "chain_semicontinuity_test",
]

DEFAULT_INTERVAL = (0.5, 2.0)
_CHUNK = 512


@dataclass(frozen=True)
class HypoSample:
    """A hypograph member (Y, X) with Y = F(X) - slack for PSD slack.

    ``slack_margin`` records lambda_min(F(X) - Y), which is nonnegative up
    to the PSD tolerance by construction.
    """

    y: np.ndarray
    x: tuple[np.ndarray, ...]
    slack_margin: float


def hypograph_member(
    fn: FreeFn,
    rng: np.random.Generator,
    n: int,
    interval: tuple[float, float] = DEFAULT_INTERVAL,
) -> HypoSample:
    """Draw a random hypograph member at size n inside the interval."""
    c1, c2 = interval
    x = rand_tuple_interval(rng, fn.arity, n, c1, c2)
    slack = abs(float(rng.normal(0.0, 0.3))) * rand_psd(rng, n)
    y = herm_part(fn(x)) - slack
    return HypoSample(y=y, x=x, slack_margin=float(np.linalg.eigvalsh(slack)[0]))


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


def _inconclusive(name: str, seed: int, error: str) -> CertReport:
    return CertReport(name, "inconclusive", 0, float(np.nan), seed, details={"error": error})


def _scan(
    name: str,
    seed: int,
    threshold: float,
    checks: list[np.ndarray],
    counter: Callable[[int, int, float], dict[str, Any]],
    details: dict[str, np.ndarray] | None = None,
) -> CertReport:
    """Report on stacked differences that must be positive semidefinite.

    ``checks`` holds one ``(T, C_s, d_s, d_s)`` stack per matrix size.  The
    checks of a trial are taken stack by stack, the trials in order; check
    (t, c) fails when lambda_min < -threshold (1 + ||difference||_F).  The
    scan stops at the first failure: ``trials_run`` is t + 1 and
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
    bounds = np.concatenate([-threshold * (1.0 + fro_norm(c)) for c in checks], axis=1)
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
    """Sample ordered pairs A <= B inside the interval and check F(A) <= F(B)."""
    rng = np.random.default_rng(seed)
    c1, c2 = interval
    draws = [draw_pair(rng, n, c1, c2) for _ in range(trials * fn.arity)]
    a, b = (slots(x, fn.arity) for x in finish_pair(*stack_draws(draws), c2))
    try:
        fa = _chunked_eval(fn, a)
        diff = _chunked_eval(fn, b) - fa
    except OpmonoError as exc:
        return _inconclusive("monotone", seed, str(exc))
    return _scan(
        "monotone", seed, tol.psd, [diff[:, None]],
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
    """Check the matrix Jensen inequality on random pairs and mixing weights."""
    rng = np.random.default_rng(seed)
    c1, c2 = interval
    k, draws, mix = fn.arity, [], []
    for _ in range(trials):
        draws += [draw_spd(rng, n, c1, c2) for _ in range(2 * k)]
        mix.append(rng.uniform(0.05, 0.95))
    ab = slots(finish_spd(*stack_draws(draws)), 2 * k)
    a, b = ab[:k], ab[k:]
    lams = np.reshape([(0.25, 0.5, 0.75, w) for w in mix], (-1, 4))
    w = lams[..., None, None]
    # per trial, in this order: A, B and the four mixtures, 6 rows
    rows = tuple(
        np.concatenate([ai[:, None], bi[:, None], (1 - w) * ai[:, None] + w * bi[:, None]], axis=1)
        for ai, bi in zip(a, b)
    )
    try:
        vals = _chunked_eval(fn, tuple(r.reshape(-1, n, n) for r in rows)).reshape(-1, 6, n, n)
    except OpmonoError as exc:
        return _inconclusive("concave", seed, str(exc))
    diff = vals[:, 2:] - ((1 - w) * vals[:, :1] + w * vals[:, 1:2])
    return _scan(
        "concave", seed, tol.psd, [diff],
        lambda t, c, m: {"A": _at(a, t), "B": _at(b, t), "lambda": float(lams[t, c]), "margin": m},
    )


def derivative_monotone_test(
    fn: FreeFn,
    n: int,
    trials: int = 500,
    seed: int = 0,
    tol: Tolerances = DEFAULT_TOL,
    interval: tuple[float, float] = DEFAULT_INTERVAL,
) -> CertReport:
    """Check DF(X)(H) >= 0 at random interior points and PSD directions."""
    rng = np.random.default_rng(seed)
    c1, c2 = interval
    pad = 0.15 * (c2 - c1)
    k, draws, gs = fn.arity, [], []
    for _ in range(trials):
        draws += [draw_spd(rng, n, c1 + pad, c2 - pad) for _ in range(k)]
        gs += [draw_gaussian(rng, n, n) for _ in range(k)]
    x = slots(finish_spd(*stack_draws(draws)), k)
    h = finish_psd(np.array(gs)).reshape(trials, k, n, n)
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
        "derivative", seed, 10 * tol.psd, [deriv],
        lambda t, c, m: {"X": _at(x, t), "H": tuple(h[t].copy()), "margin": m},
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
    """
    rng = np.random.default_rng(seed)
    c1, c2 = interval
    k, eye = fn.arity, np.eye(n)
    draws = [draw_spd(rng, n, c1, c2) for _ in range(2 * len(lambda_grid) * trials * k)]
    ab = slots(finish_spd(*stack_draws(draws)), 2 * k)
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
        "doubling", seed, tol.psd, [np.stack(dom, axis=1), jensen],
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

    Members are (Y, X) with Y = F(X) - slack; compressions by random
    isometries V : C^m -> C^n must stay members, and scalar convex
    combinations of two members must stay members.
    """
    if not 0 < m <= n:
        raise BadConfig(f"isometry target dimension m = {m} must lie in 1..{n}")
    rng = np.random.default_rng(seed)
    c1, c2 = interval
    k, draws, iso, gs, scalars = fn.arity, [], [], [], []
    for _ in range(trials):  # per trial, in stream order: X, X2, two slack scales, V, lambda, two slacks
        draws += [draw_spd(rng, n, c1, c2) for _ in range(2 * k)]
        slacks = [abs(rng.normal(0.0, 0.3)), abs(rng.normal(0.0, 0.3))]
        iso.append(draw_gaussian(rng, n, m))
        scalars.append((*slacks, rng.uniform(0.0, 1.0)))
        gs += [draw_gaussian(rng, n, n), draw_gaussian(rng, n, n)]
    both = slots(finish_spd(*stack_draws(draws)), 2 * k)
    x, x2 = both[:k], both[k:]
    s1, s2, lam = np.reshape(scalars, (-1, 3)).T[..., None, None]
    r1, r2 = slots(finish_psd(np.array(gs)), 2)
    v = finish_isometry(np.array(iso))
    try:
        fx, fx2 = _chunked_eval(fn, x), _chunked_eval(fn, x2)
        fcomp = _chunked_eval(fn, tuple(dagger(v) @ xi @ v for xi in x))
        fmix = _chunked_eval(fn, tuple((1 - lam) * ai + lam * bi for ai, bi in zip(x, x2)))
    except OpmonoError as exc:
        return _inconclusive("hypograph", seed, str(exc))
    y, y2 = fx - s1 * r1, fx2 - s2 * r2
    comp_diff = fcomp - dagger(v) @ y @ v
    mix_diff = fmix - ((1 - lam) * y + lam * y2)
    return _scan(
        "hypograph", seed, tol.psd, [comp_diff[:, None], mix_diff[:, None]],
        lambda t, c, m: [
            {"X": _at(x, t), "Y": y[t], "V": v[t].copy(), "margin": m, "kind": "isometry"},
            {"X": _at(x, t), "Y": y[t], "X2": _at(x2, t), "Y2": y2[t], "lambda": float(lam[t, 0, 0]),
             "margin": m, "kind": "combination"},
        ][c],
    )


@dataclass(frozen=True)
class LipschitzReport:
    """Empirical Lipschitz quotient and the two candidate local bounds."""

    quotient: float
    local_bound: float  # max ||F|| over the doubled ball
    bound_m_over_r: float
    bound_2m_over_r: float
    samples: int


def lipschitz_estimate(
    fn: FreeFn,
    center: tuple[np.ndarray, ...],
    radius: float,
    samples: int = 200,
    seed: int = 0,
) -> LipschitzReport:
    """Empirical Lipschitz quotient of F on a tuple-norm ball.

    The tuple norm is the sum of component operator norms.  The local bound
    M is taken over the ball of doubled radius; both M/r and 2M/r are
    reported since either appears as the constant in the continuity
    estimate for concave functions.  The center is checked as an argument
    of ``fn`` (DomainViolation for a non-finite entry).
    """
    rng = np.random.default_rng(seed)
    center = fn._args(tuple(center))
    k = len(center)
    n = center[0].shape[-1]

    def draw(rad: float) -> tuple[np.ndarray, ...]:
        deltas = [herm_part(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) for _ in range(k)]
        total = sum(float(np.linalg.norm(d, 2)) for d in deltas)
        scale = rng.uniform(0.0, rad) / total
        return tuple(c + scale * d for c, d in zip(center, deltas))

    quotient = 0.0
    local = 0.0
    for _ in range(samples):
        x = draw(radius)
        y = draw(radius)
        dist = sum(float(np.linalg.norm(yi - xi, 2)) for xi, yi in zip(x, y))
        if dist <= 0:
            continue
        fxy = float(np.linalg.norm(fn(y) - fn(x), 2))
        quotient = max(quotient, fxy / dist)
        z = draw(2 * radius)
        local = max(local, float(np.linalg.norm(fn(z), 2)))
    return LipschitzReport(
        quotient=quotient,
        local_bound=local,
        bound_m_over_r=local / radius,
        bound_2m_over_r=2 * local / radius,
        samples=samples,
    )


def chain_semicontinuity_test(
    fn: FreeFn,
    chain: list[tuple[np.ndarray, ...]],
    tol: Tolerances = DEFAULT_TOL,
) -> CertReport:
    """F(A_j) <= F(A_last) along a finite increasing chain of tuples."""
    if len(chain) < 2:
        raise BadConfig("chain needs at least two tuples")
    xs = slots(np.asarray(chain), len(chain[0]))
    gaps = np.stack([xi[1:] - xi[:-1] for xi in xs], axis=1)
    down = np.flatnonzero(np.any(min_eig(gaps) < -tol.psd * (1.0 + fro_norm(gaps)), axis=1))
    if down.size:
        raise ChainNotIncreasing(f"chain decreases between steps {down[0]} and {down[0] + 1}")
    try:
        vals = _chunked_eval(fn, xs)
    except OpmonoError as exc:
        return _inconclusive("chain", 0, str(exc))
    return _scan(
        "chain", 0, tol.psd, [(vals[-1] - vals[:-1])[:, None]],
        lambda t, c, m: {"index": t, "margin": m},
    )
