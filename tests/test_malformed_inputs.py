"""Every public entry point that takes one matrix, a coefficient list or a state
refuses a malformed one with a typed error, through ``matcore.check_args``.

The matrix-tuple entry points have their own sweep in ``test_freefun.py``; the algebra
primitives ``re_part``, ``im_part`` and ``tensor`` pass through what they are given and
are left out, and ``loewner_leq``, a predicate that reads a non-finite member as False,
is tested in ``test_matcore.py``.
"""

import numpy as np
import pytest

from opmono import (
    LinearPencil,
    PencilRepresentation,
    PivotSubspace,
    RawPencil,
    errors,
    funcalc,
    herm_certify,
    pencil_new,
    schur_generic,
    sector_bound_check,
    sector_estimate,
    shorted_psd,
)


def _spoiled(bad):
    m = np.eye(2)
    m[0, 1] = bad
    return m


MALFORMED = {
    "non-square": (np.ones((2, 3)), errors.DimensionMismatch),
    "1-D": (np.ones(2), errors.DimensionMismatch),
    "0x0": (np.zeros((0, 0)), errors.DimensionMismatch),
    "NaN": (_spoiled(np.nan), errors.DomainViolation),
    "Inf": (_spoiled(np.inf), errors.DomainViolation),
    "stack": (np.stack([np.eye(2)] * 3), errors.DimensionMismatch),
}

PIVOT = PivotSubspace.from_indices(2, [0])
ENTRY_POINTS = {
    "herm_certify": lambda m: herm_certify(m),
    "funcalc": lambda m: funcalc(np.sqrt, m),
    "sector_estimate": lambda m: sector_estimate(m),
    "sector_bound_check": lambda m: sector_bound_check(m, PIVOT),
    "shorted_psd": lambda m: shorted_psd(m, PIVOT),
    "schur_generic": lambda m: schur_generic(m, PIVOT),
    "RawPencil": lambda m: RawPencil((m, m)),
    "LinearPencil": lambda m: LinearPencil((m, m)),
    "pencil_new": lambda m: pencil_new([m, m]),
    "PencilRepresentation": lambda m: PencilRepresentation(pencil_new([2 * np.eye(2), np.eye(2)]), PIVOT, m),
}
STACKED = {"herm_certify", "funcalc"}  # batched over leading axes, so a stack is well formed


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", MALFORMED)
@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_malformed_input_raises_typed_error(name, case):
    m, error = MALFORMED[case]
    if case == "stack" and name in STACKED:
        assert ENTRY_POINTS[name](m).shape == m.shape
        return
    with pytest.raises(error):
        ENTRY_POINTS[name](m)
