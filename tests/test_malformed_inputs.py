"""Every public entry point that takes one matrix, a coefficient list or a state
refuses a malformed one with a typed error, through ``matcore.check_args``.  Every count
or index a public entry point takes must pass ``matcore.is_count`` (an integer, not a bool),
else BadConfig, and a numpy integer count gives the bytes of the same ``int``.  A finite
matrix whose Hermitian part overflows is refused where that part is formed, and every
other typed refusal of the package is reached by at least one input here or elsewhere.

The matrix-tuple entry points have their own sweep in ``test_freefun.py``; the algebra
primitives ``re_part``, ``im_part`` and ``tensor`` pass through what they are given and
are left out, and ``loewner_leq``, a predicate that reads a non-finite member as False,
is tested in ``test_matcore.py``.
"""

from dataclasses import replace

import numpy as np
import pytest

from opmono import cli
from opmono import (
    LinearPencil,
    PencilRepresentation,
    PivotSubspace,
    RawPencil,
    concave_test,
    derivative_monotone_test,
    direct_sum_rep,
    doubling_concavity_check,
    errors,
    funcalc,
    herm_certify,
    hypograph_convexity_test,
    lift_scalar,
    monotone_test,
    nc_axiom_check,
    pencil_new,
    rep_from_quadrature,
    schur_generic,
    sector_bound_check,
    sector_estimate,
    shorted_psd,
    support_pencil,
)
from opmono import serialize as io
from opmono.freefun import resolve_function
from opmono.matcore import min_eig
from opmono.pencil import pencil_direct_sum
from opmono.sampling import rand_tuple_interval
from opmono.schur import schur_pencil


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


SQRT = lift_scalar("sqrt")
A3 = rand_tuple_interval(np.random.default_rng(3), 1, 3, 0.5, 2.0)
V3 = np.ones(3)
TESTERS = {
    "monotone": monotone_test,
    "concave": concave_test,
    "derivative": derivative_monotone_test,
    "doubling": doubling_concavity_check,
    "hypograph": lambda fn, n, **kw: hypograph_convexity_test(fn, n, 1, **kw),
    "nc-axioms": nc_axiom_check,
}
COUNTS = {
    **{f"{name}-trials": lambda c, t=t: t(SQRT, n=2, trials=c) for name, t in TESTERS.items()},
    **{f"{name}-n": lambda c, t=t: t(SQRT, n=c, trials=4) for name, t in TESTERS.items()},
    "hypograph-m": lambda c: hypograph_convexity_test(SQRT, 3, c, trials=4),
    "support-samples": lambda c: support_pencil(SQRT, A3, V3, validation_samples=c),
    "direct-sum-samples": lambda c: direct_sum_rep(SQRT, [(A3, V3)], validation_samples=c),
    "quadrature-nodes": lambda c: rep_from_quadrature("sqrt", nodes=c),
    "pivot-dimension": lambda c: PivotSubspace.from_indices(c, [0]),
    "pivot-index": lambda c: PivotSubspace.from_indices(3, [c]),
    "tuple-k": lambda c: rand_tuple_interval(np.random.default_rng(0), c, 2, 0.5, 2.0),
    "tuple-n": lambda c: rand_tuple_interval(np.random.default_rng(0), 1, c, 0.5, 2.0),
}


@pytest.mark.parametrize("count", [2.5, 3.0, True], ids=["fraction", "integral-float", "bool"])
@pytest.mark.parametrize("name", COUNTS)
def test_a_count_that_is_not_an_integer_is_refused(name, count):
    with pytest.raises(errors.BadConfig):
        COUNTS[name](count)


def test_numpy_integer_counts_give_the_reports_of_python_ints():
    ref = monotone_test(SQRT, n=2, trials=64)
    got = monotone_test(SQRT, n=np.int64(2), trials=np.int64(64))
    assert io.dumps(io.report_payload(got)) == io.dumps(io.report_payload(ref))


@pytest.mark.parametrize("counts", [dict(seed=np.int64(3)), dict(validation_samples=np.int64(20))],
                         ids=["seed", "validation-samples"])
def test_numpy_integer_counts_give_the_certificate_of_python_ints(counts):
    ref = support_pencil(SQRT, A3, V3, seed=3, validation_samples=20)
    got = support_pencil(SQRT, A3, V3, **{"seed": 3, "validation_samples": 20, **counts})
    assert io.dumps(io.certificate_payload(got)) == io.dumps(io.certificate_payload(ref))


OVERFLOWS = np.full((3, 3), 1e308)  # finite, but A + A* overflows to inf in every entry
HERMITIAN_PART = {
    "funcalc": lambda: funcalc(np.sqrt, OVERFLOWS),
    "sector_estimate": lambda: sector_estimate(OVERFLOWS),
    "sector_bound_check": lambda: sector_bound_check(OVERFLOWS, PivotSubspace.from_vector(np.ones(3))),
    "identity-lift": lambda: lift_scalar("identity")(OVERFLOWS),
    "herm_certify": lambda: herm_certify(OVERFLOWS),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", ["min_eig", *HERMITIAN_PART])
def test_a_hermitian_part_that_overflows_is_refused_without_a_warning(name):
    if name == "min_eig":  # -inf, the value of a non-finite member; the other members keep their bits
        finite = A3[0]
        assert np.array_equal(min_eig(np.stack([OVERFLOWS, finite])), [-np.inf, min_eig(finite)])
        return
    with pytest.raises(errors.DomainViolation, match="Hermitian part that is not finite"):
        HERMITIAN_PART[name]()


@pytest.mark.filterwarnings("error")
def test_a_hermitian_defect_that_overflows_is_refused_without_a_warning():
    a = np.array([[0.0, 1e308], [-1e308, 0.0]])  # (A + A*)/2 = 0, but A - A* overflows
    with pytest.raises(errors.NotHermitian, match="defect inf"):
        herm_certify(a)


I2 = np.eye(2)
FILES = {"matrix": ("matrix", io.encode_matrix(I2)),
         "triple": ("tuple", io.encode_tuple((I2, I2, I2))),
         "pencil": ("pencil", io.pencil_payload(pencil_new([2 * I2, I2])))}


def _cli(*argv):
    """A CLI run with ``{name}`` read as the path of that entry of FILES: its exit code."""
    return lambda paths: cli.main([arg.format(**paths) for arg in argv])


# name: (the call on the paths of FILES, its error, or the CLI's exit code and the error it prints)
REFUSALS = {
    "mean-without-complex-evaluator": (lambda p: resolve_function("geomean2").eval_complex(I2, I2),
                                       errors.UnknownFunction),
    "unknown-lift": (lambda p: lift_scalar("nope"), errors.UnknownFunction),
    "mobius-with-two-coefficients": (lambda p: resolve_function("mobius:1,2"), errors.UnknownFunction),
    "raw-pencil-without-b1": (lambda p: RawPencil((I2,)), errors.ArityMismatch),
    "empty-direct-sum": (lambda p: pencil_direct_sum([]), errors.ArityMismatch),
    "support-vector-of-another-size": (lambda p: support_pencil(SQRT, (I2,), np.ones(3)), errors.DimensionMismatch),
    "pivot-basis-not-a-matrix": (lambda p: PivotSubspace(np.ones(3)), errors.DimensionMismatch),
    "schur-pivot-of-another-dimension": (
        lambda p: schur_pencil(pencil_new([2 * I2, I2]), (I2,), PivotSubspace.from_indices(3, [0])),
        errors.DimensionMismatch),
    "unknown-file-kind": (lambda p: io.envelope("bogus", {}), errors.DataError),
    "certificate-with-nan-margin": (
        lambda p: io.certificate_payload(replace(support_pencil(SQRT, (I2,), np.ones(2)), support_margin=np.nan)),
        errors.DataError),
    "cli-interval-not-numbers": (_cli("check", "sqrt", "monotone", "--interval", "a,b"), (64, "BadConfig")),
    "cli-schur-without-pivot": (_cli("schur", "{matrix}"), (64, "BadConfig")),
    "cli-mean-on-a-triple": (_cli("mean", "geomean2", "{triple}"), (64, "BadConfig")),
    "cli-tuple-of-another-kind": (_cli("mean", "geomean2", "{pencil}"), (65, "DataError")),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_each_refusal_is_typed(case, tmp_path, capsys):
    call, expected = REFUSALS[case]
    paths = {name: str(tmp_path / f"{name}.json") for name in FILES}
    if not isinstance(expected, tuple):
        with pytest.raises(expected):
            call(paths)
        return
    for name, (kind, payload) in FILES.items():
        io.save(paths[name], kind, payload)
    code, error = expected
    assert call(paths) == code
    assert capsys.readouterr().err.startswith(f"error: {error}: ")
