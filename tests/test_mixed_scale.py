"""A stack of members of very different scales is decided and evaluated as its members are alone.

Every check that accepts or refuses a stacked argument reads each member against its own
floor, slack or threshold, so a member of norm 1e-5 is held to its own scale even beside one
of norm 1e5.  For each entry point below, a stack spread over ten orders of magnitude must be
accepted exactly when every member is accepted alone, refused with the error of a member
refused alone otherwise, and its values must equal the members' own to 1e-13 relative.
"""

from functools import lru_cache

import numpy as np
import pytest

from opmono.errors import OpmonoError
from opmono.freefun import MobiusMap, mobius_apply, resolve_function
from opmono.matcore import fro_norm, funcalc, herm_certify
from opmono.represent import rep_eval, rep_eval_complex, rep_from_quadrature
from opmono.sampling import rand_herm, rand_psd

N = 3
SCALES = np.logspace(-5, 5, 5)


@lru_cache(maxsize=1)
def sqrt_rep():
    return rep_from_quadrature("sqrt", nodes=16, interval=(0.1, 10.0), target=1e-2)


def spd(rng, c):
    return c * (rand_psd(rng, N) + 0.5 * np.eye(N))


def one(rng, c):
    return (spd(rng, c),)


def pair(rng, c):
    return spd(rng, c), spd(rng, c)


def upper_or_right(rng, c):
    # each member falls in the upper or the right half-space at random
    h, p = rand_herm(rng, N), rand_psd(rng, N) + 0.5 * np.eye(N)
    return (c * (h + 1j * p if rng.random() < 0.5 else p + 1j * h),)


def catalogue(name):
    fn = resolve_function(name)
    return lambda x: fn(*x)


ALMOST_PSD = np.diag([-1e-5, 1.0, 2.0])  # outside every floor and slack at its own scale

# name: (call on a tuple of stacks, draw of one member at scale c, one member refused alone or None)
CASES = {
    "funcalc": (lambda x: funcalc(np.sqrt, x[0]), one, (ALMOST_PSD,)),
    "mobius_apply": (lambda x: mobius_apply(MobiusMap(0, -1, 1, 0), x[0]), one, (np.diag([0.0, 1.0, 2.0]),)),
    "herm_certify": (lambda x: herm_certify(x[0]), lambda rng, c: (c * rand_herm(rng, N),),
                     (np.eye(N) + 1e-6j * np.diag([1.0, 0.0, 0.0]),)),
    **{name: (catalogue(name), one, (ALMOST_PSD,)) for name in ("sqrt", "log1p", "pow:0.7")},
    **{name: (catalogue(name), one, None) for name in ("identity", "xsq")},  # defined at every Hermitian X
    **{name: (catalogue(name), pair, (np.eye(N), ALMOST_PSD))
       for name in ("geomean2", "harmonic", "karcher", "power:t=0.5", "power:t=1")},
    "rep_eval": (lambda x: rep_eval(sqrt_rep(), x), one, (ALMOST_PSD,)),
    "rep_eval_complex": (lambda x: rep_eval_complex(sqrt_rep(), x), upper_or_right, (-np.eye(N) - 1j * np.eye(N),)),
}
PARAMS = [(name, refused) for name, (_, _, bad) in CASES.items() for refused in (False, True)
          if bad is not None or not refused]


def verdict(call, x):
    """("ok", value) or (error type, None)."""
    try:
        return "ok", call(x)
    except OpmonoError as exc:
        return type(exc), None


@pytest.mark.parametrize("name,refused", PARAMS, ids=[f"{n}-{'refused' if r else 'accepted'}" for n, r in PARAMS])
def test_a_mixed_scale_stack_is_decided_and_evaluated_as_its_members_alone(name, refused):
    call, draw_member, bad = CASES[name]
    rng = np.random.default_rng(47)
    members = [draw_member(rng, c) for c in SCALES]
    if refused:
        members.insert(2, tuple(np.asarray(m, dtype=complex) for m in bad))  # beside the members of scale 1e-2.5 and 1
    alone = [verdict(call, m) for m in members]
    refusals = {kind for kind, _ in alone if kind != "ok"}
    assert bool(refusals) == refused
    kind, value = verdict(call, tuple(np.stack(slot) for slot in zip(*members)))
    if refused:
        assert kind in refusals
        return
    assert kind == "ok"
    for got, (_, own) in zip(value, alone):
        assert fro_norm(got - own) <= 1e-13 * fro_norm(own)
