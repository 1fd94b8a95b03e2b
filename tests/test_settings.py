"""Every setting of the package's public objects is one that a caller outside the tests chooses.

A field or parameter that every caller leaves at one value is not a setting but a constant
with an extra name: each one doubles what the tests must cover and what a reader must rule
out.  So the stored fields of every dataclass and the parameter lists of every callable in
the ``__all__`` of any module of the package that has a default are pinned here, each optional
entry beside the non-test
caller (the CLI, a library function, a demo or ``perfbench``) that sets a second value, or the
``tol`` contract: one ``Tolerances`` on every entry point that applies its ``psd`` or ``eq``,
as ``matcore.check_args`` is one argument check, and on no other.  The rank cut is no setting
but the constant ``matcore.RANK_CUT``, so the functions that only applied it take no ``tol``,
and a function that compares no floor takes none either: every ``tol`` parameter in the
package is read (``test_every_tol_is_read``).  A new setting has to be added here together with
the caller that needs it.
"""

import ast
import dataclasses
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import opmono
from opmono import cert, serialize
from opmono.cert import CertReport
from opmono.freefun import FreeFn, frechet_derivative, karcher_mean, lift_scalar, mobius_apply
from opmono.gradients import dk_map
from opmono.matcore import (Tolerances, check_args, funcalc, herm_certify, loewner_leq, min_eig, psd_floor,
                            require_psd, sector_estimate, truncated_pinv)
from opmono.pencil import LinearPencil, pencil_arguments, pencil_new, pencil_sectorial_check, range_basis, range_cut
from opmono.represent import (
    PencilRepresentation,
    SupportCertificate,
    direct_sum_rep,
    reconstruct,
    rep_eval,
    rep_eval_complex,
    rep_from_quadrature,
    support_pencil,
)
from opmono.schur import PivotSubspace, schur_generic, schur_pencil, sector_bound_check, shorted_psd

TESTER_PARAMETERS = (
    "fn",  # the catalogue function: cli._cmd_check
    "n",  # cli --n
    "trials",  # cli --trials; cli._cmd_check gives doubling a tenth of them
    "seed",  # cli --seed
    "tol",  # the tol contract; cli --tol
    "interval",  # cli --interval
)

FIELDS = {
    Tolerances: ("psd",),  # cli --tol; also herm_certify's Hermitian-defect bound; eq is derived from it
    FreeFn: (
        "name",  # every catalogue constructor
        "arity",  # 1 for the lifts, the weight count for the means
        "evaluator",  # every catalogue constructor
        "complex_evaluator",  # freefun._declared_fn's lifts and mobius_fn; None for the means
        "vgrad",  # freefun._declared_fn, freefun._mean_fn and PencilRepresentation.fn; None for fake_trace_fn
        "monotone",  # False for xsq, faketrace and a Moebius map with a pole in (0, inf)
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
    LinearPencil: (
        "coeffs",
        "coeff_margin",  # pencil_new, the only constructor, sets both margins
        "dominance_margin",
    ),
    CertReport: (
        "property_name",
        "verdict",
        "trials_run",
        "worst_margin",
        "seed",
        "counterexample",  # cert._report on a counterexample; None otherwise
        "details",  # cert._report and cert._inconclusive
    ),
    PencilRepresentation: (
        "pencil",
        "pivot",
        "state",
        "meta",  # rep_from_quadrature, SupportCertificate.rep, serialize's loader
    ),
    PivotSubspace: ("basis",),  # the ambient dimension is the basis' row count
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
    direct_sum_rep: (
        "fn",
        "points",
        "validation_samples",  # demo 06's 80
        "seed",  # demo 06's 8
        "tol",  # the tol contract: support_pencil's
    ),
    frechet_derivative: (
        "fn",
        "x",
        "direction",
        "tol",  # the tol contract: its agreement test reads eq
    ),
    rep_eval_complex: ("rep", "x", "tol"),  # the tol contract: SchurCore.evaluate's floors; cli repeval --complex --tol
    rep_from_quadrature: (
        "name",
        "nodes",  # cli --nodes, perfbench's 64, 32 and 48
        "interval",  # cli --interval
        "p",  # cli quadrep pow:P
        "target",  # cli --target
        "tol",  # the tol contract: pencil_new's psd
    ),
    herm_certify: ("m", "tol"),  # the tol contract: its defect bound reads psd
    loewner_leq: ("a", "b", "tol"),  # the tol contract: the PSD floor
    sector_estimate: ("a", "tol"),  # the tol contract: the PSD floor; pencil_sectorial_check's, sector_bound_check's
    funcalc: ("f", "a"),
    pencil_new: (
        "coeffs",
        "tol",  # the tol contract: the PSD floor; support_pencil's and rep_from_quadrature's
        "margins",  # represent.support_pencil's, its gradients' margins from require_psd
    ),
    pencil_sectorial_check: ("pencil", "x", "tol"),  # the tol contract: sector_estimate's
    shorted_psd: ("a", "s", "tol"),  # the tol contract; cli schur --mode psd --tol
    schur_generic: ("a", "s", "keep"),  # cli --keep, demo 03's "perp"
    sector_bound_check: ("a", "s", "tol"),  # the tol contract; cli schur --mode sector-bound --tol
    schur_pencil: ("pencil", "x", "s", "tol"),  # the tol contract: SchurCore.evaluate's floors read psd and eq
    lift_scalar: ("name", "p"),  # resolve_function's pow:P, rep_from_quadrature's p
    karcher_mean: ("xs", "weights", "return_info"),  # cli mean's karcher
    mobius_apply: ("g", "x"),
    # the rank cut is matcore.RANK_CUT, so these take no tol
    truncated_pinv: ("a",),
    range_cut: ("w",),
    range_basis: ("a",),
    # these compare no floor: the whole complement and the traced value are not certified,
    # and rep_eval's domain check compares with 0
    reconstruct: ("cert",),
    rep_eval: ("rep", "x"),
    check_args: ("mats", "arity", "name", "one"),  # one=True: pencil_new, sector_estimate, FreeFn.gradient
    min_eig: ("a", "blocks"),  # require_psd's blocks: pencil_new's and the representation state's exact blocks
    psd_floor: ("a", "tol"),  # the tol contract
    require_psd: ("a", "error", "what", "tol", "blocks"),  # the tol contract; pencil_new's and the state's blocks
    pencil_arguments: ("pencil", "x", "shifted", "one"),  # one=True: pencil_sectorial_check, SchurCore.evaluate
    dk_map: ("a", "f", "fprime", "eig"),  # freefun._implicit_vgrad passes its own eigh of Z
    serialize.parse_envelope: ("obj", "expect"),  # serialize.load's, perfbench's "certificate" and "representation"
    serialize.load: ("path", "expect"),  # cli's "matrix", "pencil", "certificate" and "representation"
}


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda c: c.__name__)
def test_stored_fields(cls):
    assert tuple(f.name for f in dataclasses.fields(cls)) == FIELDS[cls]


@pytest.mark.parametrize("func", list(PARAMETERS), ids=lambda f: f.__name__)
def test_parameters(func):
    assert tuple(inspect.signature(func).parameters) == PARAMETERS[func]


def _has_default(obj) -> bool:
    if dataclasses.is_dataclass(obj):
        return any(f.default is not dataclasses.MISSING or f.default_factory is not dataclasses.MISSING
                   for f in dataclasses.fields(obj))
    return any(p.default is not inspect.Parameter.empty for p in inspect.signature(obj).parameters.values())


def test_every_public_default_is_pinned():
    # every module's __all__; importing __main__ would run the CLI
    modules = [opmono] + [importlib.import_module(f"opmono.{info.name}")
                          for info in pkgutil.iter_modules(opmono.__path__) if info.name != "__main__"]
    public = [getattr(module, name) for module in modules for name in getattr(module, "__all__", ())]
    with_defaults = {obj for obj in public if (isinstance(obj, type) or inspect.isfunction(obj)) and _has_default(obj)}
    assert not with_defaults - set(FIELDS) - set(PARAMETERS)


def _tol_functions():
    """Every function of the package with a ``tol`` parameter, and the classes' ``__init__`` by class name."""
    functions, inits = [], {}
    for path in sorted(Path(opmono.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef):
                params = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
                if "tol" in [param.arg for param in params]:
                    functions.append((path.stem, node))
            elif isinstance(node, ast.ClassDef):
                inits.update((node.name, item) for item in node.body
                             if isinstance(item, ast.FunctionDef) and item.name == "__init__")
    return functions, inits


def _callee(call):
    return call.func.id if isinstance(call.func, ast.Name) else getattr(call.func, "attr", None)


def _is_tol(node):
    return isinstance(node, ast.Name) and node.id == "tol"


def test_every_tol_is_read():
    # a tol counts as read where the function reads one of its attributes, passes it to
    # dataclasses.replace, or passes it to a package function, matched by name (a class by
    # its __init__), whose own tol counts as read; storing it, on self or elsewhere, is no read
    functions, inits = _tol_functions()
    by_name = {}
    for _, node in functions:
        by_name.setdefault(node.name, []).append(node)
    for name, init in inits.items():
        if any(init is node for _, node in functions):
            by_name.setdefault(name, []).append(init)

    def reads(node):
        return any(isinstance(n, ast.Attribute) and _is_tol(n.value)
                   or isinstance(n, ast.Call) and _callee(n) == "replace" and n.args and _is_tol(n.args[0])
                   for n in ast.walk(node))

    def passed_to(node):
        return {_callee(n) for n in ast.walk(node) if isinstance(n, ast.Call)
                and any(_is_tol(a) for a in n.args + [k.value for k in n.keywords])}

    read = {id(node) for _, node in functions if reads(node)}
    grown = True
    while grown:
        grown = False
        for _, node in functions:
            if id(node) not in read and any(name in by_name and all(id(m) in read for m in by_name[name])
                                            for name in passed_to(node)):
                read.add(id(node))
                grown = True
    assert functions
    assert [f"{module}.{node.name} (line {node.lineno})" for module, node in functions if id(node) not in read] == []
