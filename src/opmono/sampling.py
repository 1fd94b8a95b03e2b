"""Seeded random generators for matrices, tuples, and hypograph members.

Everything is driven by an explicit ``numpy.random.Generator`` so that a
seed pins the whole draw sequence; certification reports replay from the
stored seed and the requested trial count.

Each sampler is split into its draws and its finish.  ``draw`` makes one
generator call per distinct entry of a fixed plan: the R rounds of an entry
that appears c times per round come from one ``standard_normal`` or
``random`` call of R c values, mapped once with the arithmetic of numpy's
own ``normal`` and ``uniform``.  The samplers of single objects and of
tuples draw one object at a time, so their streams are those of the
generator's own per-matrix calls.  The finish (``finish_*``) does the
arithmetic over a whole stack at once: one ``qr`` with Mezzadri's phase
fix (*Notices AMS* 54, 2007) for unitaries, isometries and SPD matrices,
one ``g g*`` for PSD matrices, one ``eigvalsh`` for the bumps of ordered
pairs.

The testers draw each round as a frame (``frame_plan``, ``finish_frame``,
``from_frame``): k matrices with spectra in an interval, in the eigenbasis
of the first, which is diag(lam) exactly and takes no Gaussian, ``qr`` or
product.  For a function unitarily equivariant in all its arguments
jointly, that is the law of k Haar-rotated matrices conjugated by the
first one's U*: the other U_1* U_j are again Haar and independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import BadConfig
from .matcore import dagger, herm_part, is_count, unit_vector

__all__ = [
    "generator",
    "rand_complex",
    "rand_herm",
    "rand_psd",
    "rand_unitary",
    "rand_unit_vector",
    "rand_spd_interval",
    "rand_tuple_interval",
    "normal",
    "uniform",
    "spd_plan",
    "frame_plan",
    "pair_plan",
    "draw",
    "slots",
    "finish_unitary",
    "finish_isometry",
    "finish_psd",
    "finish_spd",
    "finish_frame",
    "from_spectrum",
    "from_frame",
    "pair_above",
]


@dataclass(frozen=True, eq=False)
class Draw:
    """A plan entry, one stack per object: ``random`` or ``standard_normal`` values mapped to lo + scale * x.

    A ``normal`` entry takes lo = 0.0 and scale = 1.0; a ``uniform`` one its
    interval.  Each shape entry must be a count of at least 1
    (``matcore.is_count``), else BadConfig.
    """

    shape: tuple[int, ...]
    uniform: bool
    lo: float
    scale: float

    def __post_init__(self) -> None:
        if not all(is_count(d, 1) for d in self.shape):
            raise BadConfig(f"matrix dimensions must be positive integers, got {self.shape}")
        if not (np.isfinite(self.lo) and np.isfinite(self.scale) and self.scale >= 0):
            raise BadConfig(f"bad sampling interval ({self.lo}, {self.lo + self.scale}): it needs finite lo <= hi")


def generator(seed: int) -> np.random.Generator:
    """``np.random.default_rng(seed)``, the one generator a seed pins; BadConfig unless the seed is an integer >= 0.

    The seed must pass ``matcore.is_count`` at 0: a bool is refused with the
    other non-integers, as a certificate stores its seed and True is no seed.
    """
    if not is_count(seed, 0):
        raise BadConfig(f"seed must be a non-negative integer, got {seed!r}")
    return np.random.default_rng(seed)


def normal(*shape: int) -> Draw:
    """The draw of ``Generator.normal(0.0, 1.0, size=shape)``: 0.0 + 1.0 * z, which clears a -0.0."""
    return Draw(shape, False, 0.0, 1.0)


def uniform(lo: float, hi: float, *shape: int) -> Draw:
    """The draw of ``Generator.uniform(lo, hi, size=shape)``: lo + (hi - lo) * u, hi - lo in double."""
    return Draw(shape, True, float(lo), float(hi) - float(lo))


def spd_plan(n: int, c1: float, c2: float) -> list[Draw]:
    """Draws of one ``finish_spd`` matrix: a Gaussian (n, n), then n eigenvalues in [c1, c2]."""
    return [normal(2, n, n), uniform(c1, c2, n)]


def frame_plan(n: int, c1: float, c2: float, k: int) -> list[Draw]:
    """Draws of one round of a k-member frame: k spectra in [c1, c2], then the k - 1 other members' Gaussians (n, n)."""
    return [uniform(c1, c2, n)] * k + [normal(2, n, n)] * (k - 1)


def pair_plan(n: int, c1: float, c2: float, k: int) -> list[Draw]:
    """Draws of k ordered pairs (``pair_above``): A's frame in [c1, mid], then k bump Gaussians and k bump scales."""
    return frame_plan(n, c1, c1 + 0.6 * (c2 - c1), k) + [normal(2, n, n)] * k + [uniform(0.05, 0.95)] * k


def draw(rng: np.random.Generator, rounds: int, plan: Sequence[Draw]) -> tuple[np.ndarray, ...]:
    """``rounds`` rounds of the plan, one generator call and one stack per distinct entry.

    An entry appearing c times per round comes back as a trial-major
    ``(rounds * c, *shape)`` stack, drawn in one call; the calls and the
    stacks follow the entries' first appearance.  Only a one-round draw of
    distinct entries takes the stream of the plan's calls made one by one.
    ``rounds`` must be a count of at least 1 (``matcore.is_count``), else
    BadConfig.
    """
    if not is_count(rounds, 1):
        raise BadConfig(f"nothing to draw: the trial count must be positive and an integer, got {rounds!r}")
    stacks = []
    for d in dict.fromkeys(plan):
        s = (rng.random if d.uniform else rng.standard_normal)((rounds * plan.count(d), *d.shape))
        s *= d.scale
        s += d.lo
        stacks.append(s)
    return tuple(stacks)


def _one_by_one(rng: np.random.Generator, k: int, plan: Sequence[Draw]) -> tuple[np.ndarray, ...]:
    """k one-round draws of the plan, stacked: the stream of k separate objects."""
    if not is_count(k, 1):
        raise BadConfig(f"nothing to draw: a tuple needs an integer count of at least one component, got {k!r}")
    return tuple(np.concatenate(s) for s in zip(*(draw(rng, 1, plan) for _ in range(k))))


def _complex(z: np.ndarray) -> np.ndarray:
    """Stacked ``(..., 2, n, m)`` Gaussian parts as complex ``(..., n, m)``."""
    return z[..., 0, :, :] + 1j * z[..., 1, :, :]


def _gaussian(rng: np.random.Generator, *shape: int) -> np.ndarray:
    """The ``(2, *shape)`` parts of one complex Gaussian."""
    return draw(rng, 1, [normal(2, *shape)])[0][0]


def rand_complex(rng: np.random.Generator, *shape: int) -> np.ndarray:
    z = _gaussian(rng, *shape)
    return z[0] + 1j * z[1]


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


def finish_psd(z: np.ndarray) -> np.ndarray:
    """g g* / n for Gaussian draws ``(..., 2, n, n)`` of g."""
    g = _complex(z)
    return (g @ dagger(g)) / g.shape[-1]


def from_spectrum(u: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Herm(U diag(lam) U*) for stacked unitaries U and spectra lam."""
    return herm_part((u * lam[..., None, :]) @ dagger(u))


def finish_spd(z: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Herm(U diag(lam) U*) with U Haar from the Gaussian draws z: spectrum lam."""
    return from_spectrum(finish_unitary(z), lam)


def finish_frame(k: int, stacks: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, ...]]:
    """The Haar unitaries, the spectra and the other stacks of a draw whose plan begins with ``frame_plan(.., k)``.

    R rounds give R (k - 1) unitaries from one ``finish_unitary``, none for k = 1, and R k spectra.
    """
    lam, *rest = stacks
    u = finish_unitary(rest.pop(0)) if k > 1 else np.empty((0, *lam.shape[-1:] * 2), dtype=complex)
    return u, lam, tuple(rest)


def from_frame(u: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """The trial-major ``(R k, n, n)`` members of a frame: per round diag(lam) first, then Herm(U diag(lam) U*).

    ``lam`` holds the R k spectra (or any values on them, as f(lam)) and ``u`` the R (k - 1) unitaries.
    """
    rounds, n = len(lam) - len(u), lam.shape[-1]
    lam = lam.reshape(rounds, -1, n)
    out = np.zeros((*lam.shape, n), dtype=complex)
    out[:, 0, np.arange(n), np.arange(n)] = lam[:, 0]
    out[:, 1:] = from_spectrum(u.reshape(rounds, -1, n, n), lam[:, 1:])
    return out.reshape(-1, n, n)


def pair_above(
    a: np.ndarray, lam: np.ndarray, h: np.ndarray, w: np.ndarray, c2: float
) -> tuple[np.ndarray, np.ndarray]:
    """A and B = Herm(A + P) >= A with spectrum below c2, from A's drawn spectra and the bump draws of ``pair_plan``.

    The bump P = finish_psd(h) is scaled to w (c2 - max lam) /
    lambda_max(P), so lambda_max(B) <= c2 - (1 - w)(c2 - max lam), far
    below c2 against the rounding of A's spectrum for w <= 0.95.  The scale
    is drawn for every component: lambda_max(P) > 0 unless h = 0, which a
    Gaussian draw never gives, and where it is 0 the bump is left unscaled.
    """
    bump = finish_psd(h)
    top = np.linalg.eigvalsh(bump)[..., -1]
    scale = np.divide(w * (c2 - np.max(lam, axis=-1)), top, out=np.ones_like(top), where=top > 0)
    return a, herm_part(a + bump * scale[..., None, None])


def rand_herm(rng: np.random.Generator, n: int) -> np.ndarray:
    """Herm(G) for a complex Gaussian n x n G; a caller scales it as it needs."""
    return herm_part(rand_complex(rng, n, n))


def rand_psd(rng: np.random.Generator, n: int) -> np.ndarray:
    """g g* / n for a complex Gaussian n x n g (``finish_psd``); a caller scales it as it needs."""
    return finish_psd(_gaussian(rng, n, n))


def rand_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    return finish_unitary(_gaussian(rng, n, n))


def rand_unit_vector(rng: np.random.Generator, n: int) -> np.ndarray:
    return unit_vector(rand_complex(rng, n))


def rand_spd_interval(
    rng: np.random.Generator, n: int, c1: float, c2: float
) -> np.ndarray:
    """Hermitian matrix with eigenvalues drawn uniformly from [c1, c2]."""
    return rand_tuple_interval(rng, 1, n, c1, c2)[0]


def rand_tuple_interval(
    rng: np.random.Generator, k: int, n: int, c1: float, c2: float
) -> tuple[np.ndarray, ...]:
    return tuple(finish_spd(*_one_by_one(rng, k, spd_plan(n, c1, c2))))
