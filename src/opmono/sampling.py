"""Seeded random generators for matrices, tuples, and hypograph members.

Everything is driven by an explicit ``numpy.random.Generator`` so that a
seed pins the whole draw sequence; certification reports replay from the
stored seed alone.

Each sampler is split into its draws and its finish.  The draws
(``draw_gaussian``, ``draw_spd``, ``draw_pair``) are the generator calls
of one matrix, in the order the seed pins, and nothing else.  The finish
(``finish_*``) does all the arithmetic over a whole stack of draws at
once: one ``qr`` with Mezzadri's phase fix (*Notices AMS* 54, 2007) for
unitaries, isometries and SPD matrices, one ``g g*`` for PSD matrices,
and one ``eigvalsh`` for ordered pairs.  A caller that draws other values
between matrices collects the draws in its trial loop, one matrix at a
time, then stacks them with ``stack_draws`` and finishes them in one
call.  The per-matrix samplers are the same finish on a single draw, and
a stack gives the bits that drawing matrix by matrix gives.
"""

from __future__ import annotations

import numpy as np

from .errors import BadConfig
from .matcore import dagger, herm_part

__all__ = [
    "rand_complex",
    "rand_herm",
    "rand_psd",
    "rand_unitary",
    "rand_isometry",
    "rand_unit_vector",
    "rand_spd_interval",
    "rand_tuple_interval",
    "ordered_pair_interval",
    "draw_gaussian",
    "draw_spd",
    "draw_pair",
    "stack_draws",
    "slots",
    "finish_unitary",
    "finish_isometry",
    "finish_psd",
    "finish_spd",
    "finish_pair",
]


def draw_gaussian(rng: np.random.Generator, *shape: int) -> np.ndarray:
    """Real parts, then imaginary parts, of a complex Gaussian: one ``normal`` call, ``(2, *shape)``.

    Every sampler draws through here, so a dimension below 1 is refused here.
    """
    if min(shape) < 1:
        raise BadConfig(f"matrix dimensions must be positive, got {shape}")
    return rng.normal(size=(2, *shape))


def _complex(z: np.ndarray) -> np.ndarray:
    """Stacked ``(..., 2, n, m)`` Gaussian parts as complex ``(..., n, m)``."""
    return z[..., 0, :, :] + 1j * z[..., 1, :, :]


def rand_complex(rng: np.random.Generator, *shape: int) -> np.ndarray:
    z = draw_gaussian(rng, *shape)
    return z[0] + 1j * z[1]


def draw_spd(
    rng: np.random.Generator, n: int, c1: float, c2: float
) -> tuple[np.ndarray, np.ndarray]:
    """Draws of one ``finish_spd`` matrix: a Gaussian (n, n), then n eigenvalues in [c1, c2]."""
    return draw_gaussian(rng, n, n), rng.uniform(c1, c2, size=n)


def draw_pair(
    rng: np.random.Generator, n: int, c1: float, c2: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Draws of one ``finish_pair`` component: A's draws in [c1, mid], the bump's Gaussian, its scale."""
    z, lam = draw_spd(rng, n, c1, c1 + 0.6 * (c2 - c1))
    return z, lam, draw_gaussian(rng, n, n), rng.uniform(0.05, 0.95)


def stack_draws(draws: list[tuple]) -> tuple[np.ndarray, ...]:
    """Per-matrix draws, each a tuple, as one stacked array per tuple entry.

    The list is emptied, so the per-matrix draws are freed once they are
    stacked rather than held while the stacks are finished and evaluated.
    """
    if not draws:
        raise BadConfig("nothing to draw: the trial count must be positive")
    parts = tuple(np.array(part) for part in zip(*draws))
    draws.clear()
    return parts


def slots(x: np.ndarray, k: int) -> tuple[np.ndarray, ...]:
    """A trial-major ``(T * k, n, n)`` stack as k contiguous ``(T, n, n)`` stacks, one per slot."""
    x = x.reshape(-1, k, *x.shape[-2:])
    return tuple(np.ascontiguousarray(x[:, i]) for i in range(k))


def finish_unitary(z: np.ndarray) -> np.ndarray:
    """Haar unitaries from Gaussian draws ``(..., 2, n, n)``: Q of g = QR with R's diagonal made positive."""
    q, r = np.linalg.qr(_complex(z))
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def finish_isometry(z: np.ndarray) -> np.ndarray:
    """Isometries C^m -> C^n from Gaussian draws ``(..., 2, n, m)``: the reduced Q."""
    return np.linalg.qr(_complex(z))[0]


def finish_psd(z: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """scale * g g* / n for Gaussian draws ``(..., 2, n, n)`` of g."""
    g = _complex(z)
    return scale * (g @ dagger(g)) / g.shape[-1]


def finish_spd(z: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Herm(U diag(lam) U*) with U Haar from the Gaussian draws z: spectrum lam."""
    u = finish_unitary(z)
    return herm_part((u * lam[..., None, :]) @ dagger(u))


def finish_pair(
    z: np.ndarray, lam: np.ndarray, h: np.ndarray, w: np.ndarray, c2: float
) -> tuple[np.ndarray, np.ndarray]:
    """A <= B from ``draw_pair`` draws, both with spectra below c2.

    A = finish_spd(z, lam); the bump P = finish_psd(h) is scaled to
    w (c2 - lambda_max(A)) / lambda_max(P), so B = Herm(A + P) stays below
    c2.  The scale is drawn for every component: lambda_max(P) > 0 unless
    h = 0, which a Gaussian draw never gives, and where it is 0 the bump
    is left unscaled.
    """
    a = finish_spd(z, lam)
    bump = finish_psd(h)
    top_a, top = np.linalg.eigvalsh(np.stack([a, bump]))[..., -1]
    scale = np.divide(w * (c2 - top_a), top, out=np.ones_like(top), where=top > 0)
    return a, herm_part(a + bump * scale[..., None, None])


def rand_herm(rng: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
    return scale * herm_part(rand_complex(rng, n, n))


def rand_psd(rng: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
    return finish_psd(draw_gaussian(rng, n, n), scale)


def rand_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    return finish_unitary(draw_gaussian(rng, n, n))


def rand_isometry(rng: np.random.Generator, n: int, m: int) -> np.ndarray:
    """Random isometry from C^m into C^n (1 <= m <= n), V* V = I_m."""
    if not 0 < m <= n:
        raise BadConfig(f"isometry target dimension m = {m} must lie in 1..{n}")
    return finish_isometry(draw_gaussian(rng, n, m))


def rand_unit_vector(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rand_complex(rng, n)
    return v / np.linalg.norm(v)


def rand_spd_interval(
    rng: np.random.Generator, n: int, c1: float, c2: float
) -> np.ndarray:
    """Hermitian matrix with eigenvalues drawn uniformly from [c1, c2]."""
    return finish_spd(*draw_spd(rng, n, c1, c2))


def rand_tuple_interval(
    rng: np.random.Generator, k: int, n: int, c1: float, c2: float
) -> tuple[np.ndarray, ...]:
    return tuple(finish_spd(*stack_draws([draw_spd(rng, n, c1, c2) for _ in range(k)])))


def ordered_pair_interval(
    rng: np.random.Generator, k: int, n: int, c1: float, c2: float
) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """A <= B componentwise, both with spectra inside [c1, c2] (see ``finish_pair``)."""
    a, b = finish_pair(*stack_draws([draw_pair(rng, n, c1, c2) for _ in range(k)]), c2)
    return tuple(a), tuple(b)
