"""The objects that evaluate a pencil are built in a fixed set of places, so no path assembles its own copy.

A support certificate evaluates through its representation (``SupportCertificate.rep``),
and every representation and ``schur_pencil`` through the pencil's live core for that pivot
and those tolerances (``schur.shared_core``): a second construction elsewhere would be a
second evaluator of the same object, free to drift from the first.

Likewise an argument tuple of the wrong arity is refused only by ``matcore.check_args``,
the one check of every entry point that takes a matrix tuple; a pencil's coefficient
count and a direct sum's common arity are the only other arities refused.  The same
check refuses a malformed single matrix, coefficient list or state; the bare square-shape
test ``_require_square`` is left only to the pass-through algebra primitives.

Every tester's ``CertReport`` comes from ``cert._report``, or from ``cert._inconclusive``
where evaluation failed, so no tester has a stop rule or a non-finite rule of its own.

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

A Haar unitary is finished (``sampling.finish_unitary``) only for a frame's other members
(``sampling.finish_frame``), for a matrix drawn alone (``finish_spd``, ``rand_unitary``) and
for the NC-axiom check, which tests the unitary equivariance that lets the Loewner testers and
the support validation draw each trial in its first matrix's eigenbasis: a tester that finished
its own unitaries would draw one per argument again.

The one Cholesky screen, ``matcore.cholesky_proves``, serves the testers' scan alone
(``cert._screened``): every other check that compares a smallest eigenvalue with a floor
reads ``min_eig``, so a second screen beside it would be a second decision path.
"""

import ast
from pathlib import Path

import pytest

import opmono

PACKAGE = Path(opmono.__file__).parent
ALLOWED = {
    "SchurCore": {"schur.shared_core"},
    "PencilRepresentation": {"represent.SupportCertificate.rep", "represent.rep_from_quadrature",
                             "serialize.representation_from_payload"},
    "ArityMismatch": {"matcore.check_args", "pencil.RawPencil.__post_init__", "pencil.pencil_direct_sum"},
    "_require_square": {"matcore.re_part", "matcore.im_part", "matcore.block_diag"},
    "CertReport": {"cert._inconclusive", "cert._report"},
    "_spectrum": {"freefun._congruence_eig", "freefun._mean_equation", "freefun._frame_spectrum"},
    "_congruence_eig": {"freefun._congruence_fun", "freefun._loewner_vgrad", "cert._loewner_counter"},
    "_frame_spectrum": {"freefun.FreeFn._declared_at"},
    "_loewner_pair": {"freefun._loewner_vgrad", "freefun.FreeFn._loewner"},
    "_lift_margins": {"represent._graph_margins"},
    "_mean_gradient": {"freefun._fixed_point", "freefun._mean"},
    "cholesky_proves": {"cert._screened"},
    "finish_unitary": {"sampling.finish_frame", "sampling.finish_spd", "sampling.rand_unitary", "cert.nc_axiom_check"},
}


def construction_sites(name: str) -> set[str]:
    """Qualified names of the functions in the package that call ``name(...)``."""
    sites = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Call):
                func = child.func
                if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == name:
                    sites.add(".".join(scope))
            visit(child, scope)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), [path.stem])
    return sites


@pytest.mark.parametrize("name", sorted(ALLOWED))
def test_built_only_where_allowed(name):
    assert construction_sites(name) == ALLOWED[name]
