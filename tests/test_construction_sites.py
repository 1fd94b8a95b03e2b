"""The objects that evaluate a pencil are built in a fixed set of places, so no path assembles its own copy.

A support certificate evaluates through its representation (``SupportCertificate.rep``)
and every representation through its ``core``: a second construction elsewhere would be
a second evaluator of the same object, free to drift from the first.

Likewise an argument tuple of the wrong arity is refused only by ``matcore.check_args``,
the one check of every entry point that takes a matrix tuple; a pencil's coefficient
count and a direct sum's common arity are the only other arities refused.  The same
check refuses a malformed single matrix, coefficient list or state; the bare square-shape
test ``_require_square`` is left only to the pass-through algebra primitives.
"""

import ast
from pathlib import Path

import pytest

import opmono

PACKAGE = Path(opmono.__file__).parent
ALLOWED = {
    "SchurCore": {"represent.PencilRepresentation.core", "schur.schur_pencil"},
    "PencilRepresentation": {"represent.SupportCertificate.rep", "represent.rep_from_quadrature",
                             "serialize.representation_from_payload"},
    "ArityMismatch": {"matcore.check_args", "pencil.RawPencil.__post_init__", "pencil.pencil_direct_sum"},
    "_require_square": {"matcore.re_part", "matcore.im_part", "matcore.block_diag"},
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
