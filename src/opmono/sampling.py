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
one ``g g*`` for PSD matrices, one ``eigvalsh`` for ordered pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import BadConfig
from .matcore import dagger, herm_part

__all__ = [
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
    "pair_plan",
    "draw",
    "slots",
    "finish_unitary",
    "finish_isometry",
    "finish_psd",
    "finish_spd",
    "from_spectrum",
    "finish_pair",
    "pair_above",
]


@dataclass(frozen=True, eq=False)
class Draw:
    """A plan entry, one stack per object: ``random`` or ``standard_normal`` values mapped to lo + scale * x."""

    shape: tuple[int, ...]
    uniform: bool
    lo: float
    scale: float

    def __post_init__(self) -> None:
        if min(self.shape, default=1) < 1:
            raise BadConfig(f"matrix dimensions must be positive, got {self.shape}")
        if not (np.isfinite(self.lo) and np.isfinite(self.scale) and self.scale >= 0):
            what = f"interval ({self.lo}, {self.lo + self.scale})" if self.uniform else f"scale {self.scale}"
            raise BadConfig(f"bad sampling {what}: it must be finite, with lo <= hi and scale >= 0")


def normal(*shape: int, scale: float = 1.0) -> Draw:
    """The draw of ``Generator.normal(0.0, scale, size=shape)``: 0.0 + scale * z, which clears a -0.0."""
    return Draw(shape, False, 0.0, float(scale))


def uniform(lo: float, hi: float, *shape: int) -> Draw:
    """The draw of ``Generator.uniform(lo, hi, size=shape)``: lo + (hi - lo) * u, hi - lo in double."""
    return Draw(shape, True, float(lo), float(hi) - float(lo))


def spd_plan(n: int, c1: float, c2: float) -> list[Draw]:
    """Draws of one ``finish_spd`` matrix: a Gaussian (n, n), then n eigenvalues in [c1, c2]."""
    return [normal(2, n, n), uniform(c1, c2, n)]


def pair_plan(n: int, c1: float, c2: float) -> list[Draw]:
    """Draws of one ``finish_pair`` component: A's draws in [c1, mid], the bump's Gaussian, its scale."""
    return spd_plan(n, c1, c1 + 0.6 * (c2 - c1)) + [normal(2, n, n), uniform(0.05, 0.95)]


def draw(rng: np.random.Generator, rounds: int, plan: Sequence[Draw]) -> tuple[np.ndarray, ...]:
    """``rounds`` rounds of the plan, one generator call and one stack per distinct entry.

    An entry appearing c times per round comes back as a trial-major
    ``(rounds * c, *shape)`` stack, drawn in one call; the calls and the
    stacks follow the entries' first appearance.  Only a one-round draw of
    distinct entries takes the stream of the plan's calls made one by one.
    """
    if rounds < 1:
        raise BadConfig("nothing to draw: the trial count must be positive")
    stacks = []
    for d in dict.fromkeys(plan):
        s = (rng.random if d.uniform else rng.standard_normal)((rounds * plan.count(d), *d.shape))
        s *= d.scale
        s += d.lo
        stacks.append(s)
    return tuple(stacks)


def _one_by_one(rng: np.random.Generator, k: int, plan: Sequence[Draw]) -> tuple[np.ndarray, ...]:
    """k one-round draws of the plan, stacked: the stream of k separate objects."""
    if k < 1:
        raise BadConfig("nothing to draw: a tuple needs at least one component")
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


def finish_psd(z: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """scale * g g* / n for Gaussian draws ``(..., 2, n, n)`` of g."""
    g = _complex(z)
    return scale * (g @ dagger(g)) / g.shape[-1]


def from_spectrum(u: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Herm(U diag(lam) U*) for stacked unitaries U and spectra lam."""
    return herm_part((u * lam[..., None, :]) @ dagger(u))


def finish_spd(z: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Herm(U diag(lam) U*) with U Haar from the Gaussian draws z: spectrum lam."""
    return from_spectrum(finish_unitary(z), lam)


def finish_pair(
    z: np.ndarray, lam: np.ndarray, h: np.ndarray, w: np.ndarray, c2: float
) -> tuple[np.ndarray, np.ndarray]:
    """A <= B from the draws of ``pair_plan``, both with spectra below c2: ``pair_above(finish_spd(z, lam), ...)``."""
    return pair_above(finish_spd(z, lam), h, w, c2)


def pair_above(a: np.ndarray, h: np.ndarray, w: np.ndarray, c2: float) -> tuple[np.ndarray, np.ndarray]:
    """A and B = Herm(A + P) >= A with spectrum below c2, from the bump draws of ``pair_plan``.

    The bump P = finish_psd(h) is scaled to w (c2 - lambda_max(A)) /
    lambda_max(P).  The scale is drawn for every component: lambda_max(P)
    > 0 unless h = 0, which a Gaussian draw never gives, and where it is 0
    the bump is left unscaled.
    """
    bump = finish_psd(h)
    top_a, top = np.linalg.eigvalsh(np.stack([a, bump]))[..., -1]
    scale = np.divide(w * (c2 - top_a), top, out=np.ones_like(top), where=top > 0)
    return a, herm_part(a + bump * scale[..., None, None])


def rand_herm(rng: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
    return scale * herm_part(rand_complex(rng, n, n))


def rand_psd(rng: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
    return finish_psd(_gaussian(rng, n, n), scale)


def rand_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    return finish_unitary(_gaussian(rng, n, n))


def rand_unit_vector(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rand_complex(rng, n)
    return v / np.linalg.norm(v)


def rand_spd_interval(
    rng: np.random.Generator, n: int, c1: float, c2: float
) -> np.ndarray:
    """Hermitian matrix with eigenvalues drawn uniformly from [c1, c2]."""
    return rand_tuple_interval(rng, 1, n, c1, c2)[0]


def rand_tuple_interval(
    rng: np.random.Generator, k: int, n: int, c1: float, c2: float
) -> tuple[np.ndarray, ...]:
    return tuple(finish_spd(*_one_by_one(rng, k, spd_plan(n, c1, c2))))
