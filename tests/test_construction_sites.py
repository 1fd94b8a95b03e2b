"""The objects that evaluate a pencil are built in a fixed set of places, so no path assembles its own copy.

A support certificate evaluates through its representation (``SupportCertificate.rep``),
and every representation and ``schur_pencil`` through the pencil's live core for that pivot
(``schur.shared_core``): a second construction elsewhere would be a
second evaluator of the same object, free to drift from the first.

Likewise an argument tuple of the wrong arity is refused only by ``matcore.check_args``,
the one check of every entry point that takes a matrix tuple; a pencil's coefficient
count and a direct sum's common arity are the only other arities refused.  The same
check refuses a malformed single matrix, coefficient list or state; the bare square-shape
test ``_require_square`` is left only to the pass-through algebra primitives.

Every tester's ``CertReport`` comes from ``cert._report``, or from ``cert._inconclusive``
where evaluation failed, so no tester has a stop rule or a non-finite rule of its own.  One
failure rule, ``cert._tester``, wraps every tester: a typed error other than ``BadConfig``
gives the inconclusive report, and ``BadConfig`` reaches the caller.  Only the rule and
``_report`` build that report, and no other function in ``cert`` holds a ``try``, so no
tester catches an error by a rule of its own.

Every operator mean decomposes its M = L^{-1} X L^{-*} through ``freefun._spectrum``, and the
power and Karcher means take their step and stop from ``freefun._mean_gradient``, so neither
the SVD fallback nor the family's step has a second copy.  A two-argument mean's L U and the
spectrum of M come from ``freefun._congruence_eig``, shared by its evaluator, its adjoint and
the derivative test's reported counterexample.  A declaration is read at a frame, whose first
argument is diag(lam_1), only under ``freefun.FreeFn._declared_at``'s rule: it alone forms a
mean's M entrywise (``freefun._frame_spectrum``), for the derivative test's scan and the support
validation's graph samples, and ``FreeFn._loewner`` reads the Loewner matrices on its spectrum as
the adjoint does (``freefun._loewner_pair``).  A declared lift's graph samples take their real
blocks from ``represent._lift_margins`` alone.

A seed becomes a generator only in ``sampling.generator``, which refuses a seed that is not a
non-negative integer (BadConfig), so every tester and the support validation refuse it alike.

A Haar unitary is finished (``sampling.finish_unitary``) only for a frame's other members
(``sampling.finish_frame``), for a matrix drawn alone (``finish_spd``, ``rand_unitary``) and
for the NC-axiom check, which tests the unitary equivariance that lets the Loewner testers and
the support validation draw each trial in its first matrix's eigenbasis: a tester that finished
its own unitaries would draw one per argument again.

The one component finder, ``matcore.components``, labels every exact block: those of a
matrix or coefficient list (``matcore.exact_blocks``, so ``pencil_new`` and a representation's
state check) and those of a Schur core's partition, before and after its coupling cut, so a
second finder of blocks cannot grow back.

The one Cholesky screen, ``matcore.cholesky_proves``, serves the testers' scan alone
(``cert._screened``): every other check that compares a smallest eigenvalue with a floor
reads ``min_eig``, so a second screen beside it would be a second decision path.

The rounding allowance of a smallest eigenvalue, 32 k^2 eps times a norm, is formed only in
``matcore.eig_rounding``: every certificate, floor and Cholesky shift that allows for the
rounding of ``eigvalsh`` calls it, so no site keeps a constant of its own.

A representation's Schur core is one cached property, ``PencilRepresentation.core``: no
method and no second name return it, and no module calls a ``core()``.

The rank cut is one constant, ``matcore.RANK_CUT``, read where an elimination, a range cut, a
coupling cut, a truncated pseudoinverse or a pole test takes it, and no module reads a ``rank``
attribute: a second rank threshold, or a settable one, would be a second policy.

Every ``numpy.linalg`` call is pinned, kernel by kernel, to the functions that make it
(``KERNEL_SITES``), and the package names ``np.linalg`` nowhere else: a counter of the LAPACK
calls then has a fixed list of sites, and a new kernel call fails here until it is listed.
"""

import ast
from collections import Counter
from functools import cached_property
from pathlib import Path

import pytest

import opmono
from opmono.represent import PencilRepresentation

PACKAGE = Path(opmono.__file__).parent
ALLOWED = {
    "SchurCore": {"schur.shared_core"},
    "PencilRepresentation": {"represent.SupportCertificate.rep", "represent.rep_from_quadrature",
                             "serialize.representation_from_payload"},
    "ArityMismatch": {"matcore.check_args", "pencil.RawPencil.__post_init__", "pencil.pencil_direct_sum"},
    "_require_square": {"matcore.re_part", "matcore.im_part", "matcore.block_diag"},
    "CertReport": {"cert._inconclusive", "cert._report"},
    "_inconclusive": {"cert._tester.wrap.run", "cert._report"},
    "_spectrum": {"freefun._congruence_eig", "freefun._mean_equation", "freefun._frame_spectrum"},
    "_congruence_eig": {"freefun._congruence_fun", "freefun._loewner_vgrad", "cert._loewner_counter"},
    "_frame_spectrum": {"freefun.FreeFn._declared_at"},
    "_loewner_pair": {"freefun._loewner_vgrad", "freefun.FreeFn._loewner"},
    "_lift_margins": {"represent._graph_margins"},
    "_mean_gradient": {"freefun._fixed_point", "freefun._mean"},
    "cholesky_proves": {"cert._screened"},
    "components": {"matcore.exact_blocks", "schur._pivot_blocks", "schur.SchurCore.__init__"},
    "finish_unitary": {"sampling.finish_frame", "sampling.finish_spd", "sampling.rand_unitary", "cert.nc_axiom_check"},
    "default_rng": {"sampling.generator"},
}

# every numpy.linalg call in the package, by kernel: the functions that make it
KERNEL_SITES = {
    "cholesky": {"freefun._cholesky", "schur._aim"},
    "cond": {"freefun._Arguments.low", "freefun._principal_matfun.apply"},
    "eig": {"freefun._principal_matfun.apply"},
    "eigh": {"freefun._eigh", "freefun._spectrum", "gradients.dk_map", "matcore.funcalc",
             "matcore.sector_certified_alpha", "pencil.range_basis", "represent._quad_rational_weights",
             "schur.SchurCore.__init__", "schur._perp"},
    "eigvalsh": {"freefun._spectrum", "matcore.min_eig", "matcore.sector_certified_alpha", "represent._lift_margins",
                 "represent.support_pencil", "sampling.pair_above"},
    "inv": {"freefun._factor", "freefun._principal_matfun.apply", "freefun.harmonic_mean._mean",
            "freefun.mobius_apply", "schur._aim", "schur._eliminate"},
    # Frobenius, vector and column norms only: a spectral norm is a first singular value, an svd site
    "norm": {"matcore.unit_vector", "schur._sector_settles"},
    "qr": {"sampling.finish_isometry", "sampling.finish_unitary"},
    "solve": {"gradients.solve_linear_map"},
    "svd": {"cli._cmd_mean", "cli._cmd_repeval", "freefun._spectrum", "freefun.mobius_apply",
            "matcore.truncated_pinv", "schur._check_sector_bound", "schur.sector_bound_check"},
}


def modules():
    """The parsed modules of the package, by name."""
    return {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def sites(match) -> set[str]:
    """Qualified names of the functions in the package that hold a node for which ``match`` holds."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if match(child):
                found.add(".".join(scope))
            visit(child, scope)

    for name, tree in modules().items():
        visit(tree, [name])
    return found


def construction_sites(name: str) -> set[str]:
    """Qualified names of the functions in the package that call ``name(...)``."""

    def calls(node):
        if not isinstance(node, ast.Call):
            return False
        return (node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)) == name

    return sites(calls)


@pytest.mark.parametrize("name", sorted(ALLOWED))
def test_built_only_where_allowed(name):
    assert construction_sites(name) == ALLOWED[name]


def test_the_rank_cut_is_read_only_in_its_sites():
    def reads(node):  # a bare name or an attribute, where it is loaded
        return getattr(node, "id", getattr(node, "attr", None)) == "RANK_CUT" and isinstance(node.ctx, ast.Load)

    assert sites(reads) == {"schur._eliminate", "matcore.truncated_pinv", "pencil.range_cut",
                            "freefun.mobius_apply", "schur.SchurCore.__init__"}


def test_the_eigenvalue_rounding_factor_is_formed_only_in_its_function():
    def leaves(node):  # the operands of a chain of products
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
            return leaves(node.left) + leaves(node.right)
        return [node]

    def forms(node):  # a product with the constant 32 and an eps among its factors
        if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)):
            return False
        factors = leaves(node)
        return any(isinstance(f, ast.Constant) and f.value == 32 for f in factors) and \
            any(getattr(f, "id", getattr(f, "attr", None)) == "eps" for f in factors)

    assert sites(forms) == {"matcore.eig_rounding"}


def test_a_representation_has_one_core_property():
    assert isinstance(PencilRepresentation.__dict__["core"], cached_property)
    assert "_core" not in PencilRepresentation.__dict__
    assert construction_sites("core") == set()


def test_no_module_reads_a_rank_attribute():
    assert not sites(lambda node: isinstance(node, ast.Attribute) and node.attr == "rank")


def test_only_the_failure_rule_holds_a_try_in_cert():
    assert {site for site in sites(lambda node: isinstance(node, ast.Try)) if site.startswith("cert.")} == {
        "cert._tester.wrap.run"}


@pytest.mark.parametrize("kernel", sorted(KERNEL_SITES))
def test_every_kernel_call_is_pinned(kernel):
    assert sites(lambda node: isinstance(node, ast.Call) and ast.unparse(node.func) == f"np.linalg.{kernel}") == \
        KERNEL_SITES[kernel]


@pytest.mark.parametrize("module", sorted(modules()))
def test_no_kernel_is_reached_past_the_pin(module):
    # each np.linalg names a pinned kernel, or the error a kernel raises, in place: no alias and no import
    tree = modules()[module]
    named = Counter(node.attr for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and ast.unparse(node.value) == "np.linalg")
    bare = sum(isinstance(node, ast.Attribute) and node.attr == "linalg" for node in ast.walk(tree))
    assert bare == sum(named.values())
    assert set(named) <= set(KERNEL_SITES) | {"LinAlgError"}
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level == 0}
    assert not {name for name in imported if name.startswith(("numpy.", "scipy"))}
