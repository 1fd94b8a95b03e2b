"""Every setting of the package's central objects is one that a caller outside the tests chooses.

A field or parameter that every caller leaves at one value is not a setting but a constant
with an extra name: each one doubles what the tests must cover and what a reader must rule
out.  So the stored fields of ``Tolerances``, ``FreeFn`` and ``SupportCertificate`` and the
parameter lists of the six testers, ``support_pencil`` and ``frechet_derivative`` are pinned
here, each entry beside the non-test caller that sets a second value, or the ``tol`` contract
(one ``Tolerances`` on every entry point that checks, as ``matcore.check_args`` is one argument
check).  A new setting has to be added here together with the caller that needs it.
"""

import dataclasses
import inspect

import pytest

from opmono import cert
from opmono.freefun import FreeFn, frechet_derivative
from opmono.matcore import Tolerances
from opmono.represent import SupportCertificate, support_pencil

TESTER_PARAMETERS = (
    "fn",  # the catalogue function: cli._cmd_check
    "n",  # cli --n
    "trials",  # cli --trials; cli._cmd_check gives doubling a tenth of them
    "seed",  # cli --seed
    "tol",  # the tol contract; cli --tol
    "interval",  # cli --interval
)

FIELDS = {
    Tolerances: (
        "psd",  # cli --tol; also herm_certify's Hermitian-defect bound
        "rank",  # the tol contract: the elimination, range-cut and pole threshold of every check
        "eq",  # cli --tol, floored at 1e-8
    ),
    FreeFn: (
        "name",  # every catalogue constructor
        "arity",  # 1 for the lifts, the weight count for the means
        "evaluator",  # every catalogue constructor
        "complex_evaluator",  # freefun._declared_fn's lifts and mobius_fn; None for the means
        "vgrad",  # freefun._declared_fn and freefun._mean_fn; None for fake_trace_fn
        "monotone",  # False for xsq, faketrace and a Moebius map with a pole in (0, inf)
        "concave",  # as monotone
        "scalar",  # freefun._declared_fn and freefun._mean_fn at t = 1; None elsewhere
    ),
    SupportCertificate: (  # stored fields; trace_slack and gradients are derived
        "function",
        "base_point",  # cli support's tuple file, represent.direct_sum_rep's block sum
        "v",  # cli --v-file or --v-index
        "pencil",
        "c",
        "interval",  # cli --interval
        "support_margin",
        "scalar_margin",
        "trace_bound",
        "samples",  # cli --samples, represent.direct_sum_rep's 100
        "seed",  # cli --seed
    ),
}

PARAMETERS = {
    cert.monotone_test: TESTER_PARAMETERS,
    cert.concave_test: TESTER_PARAMETERS,
    cert.derivative_monotone_test: TESTER_PARAMETERS,
    cert.doubling_concavity_check: TESTER_PARAMETERS,
    cert.hypograph_convexity_test: TESTER_PARAMETERS[:2] + ("m",) + TESTER_PARAMETERS[2:],  # cli --m
    cert.nc_axiom_check: TESTER_PARAMETERS,
    support_pencil: (
        "fn",  # cli support's function, represent.direct_sum_rep's
        "a",  # cli support's tuple file
        "v",  # cli --v-file or --v-index
        "interval",  # cli --interval
        "validation_samples",  # cli --samples; 200 by default, represent.direct_sum_rep's 100
        "seed",  # cli --seed
        "tol",  # the tol contract; cli --tol
    ),
    frechet_derivative: (
        "fn",
        "x",
        "direction",
        "tol",  # the tol contract: its agreement test reads eq
    ),
}


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda c: c.__name__)
def test_stored_fields(cls):
    assert tuple(f.name for f in dataclasses.fields(cls)) == FIELDS[cls]


@pytest.mark.parametrize("func", list(PARAMETERS), ids=lambda f: f.__name__)
def test_parameters(func):
    assert tuple(inspect.signature(func).parameters) == PARAMETERS[func]
