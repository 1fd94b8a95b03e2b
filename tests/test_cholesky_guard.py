"""Every ``np.linalg.cholesky`` call sits in a ``try`` that catches ``LinAlgError``.

A stack with no Cholesky factor makes numpy raise ``LinAlgError``, which the
library turns into a typed error or a fallback; a call outside such a ``try``
would let it escape untyped.
"""

import ast
from pathlib import Path

import pytest

import opmono

SOURCES = sorted(Path(opmono.__file__).parent.glob("*.py"))


def _catches_linalg_error(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:  # a bare except
        return True
    kinds = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return any(ast.unparse(k).split(".")[-1] == "LinAlgError" for k in kinds)


def cholesky_calls(tree: ast.AST) -> list[tuple[int, bool]]:
    """(line, guarded) of each ``*.cholesky(...)`` call.

    A call is guarded when it lies in the body of a ``try`` with a handler that catches ``LinAlgError``.
    """
    out = []

    def visit(node: ast.AST, guarded: bool) -> None:
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "cholesky":
            out.append((node.lineno, guarded))
        if isinstance(node, ast.Try):
            inner = guarded or any(_catches_linalg_error(h) for h in node.handlers)
            for child in node.body:
                visit(child, inner)
            for child in node.handlers + node.orelse + node.finalbody:
                visit(child, guarded)
            return
        for child in ast.iter_child_nodes(node):
            visit(child, guarded)

    visit(tree, False)
    return out


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_every_cholesky_call_catches_linalg_error(path):
    bare = [line for line, guarded in cholesky_calls(ast.parse(path.read_text())) if not guarded]
    assert not bare, f"{path.name}: np.linalg.cholesky outside a try that catches LinAlgError at lines {bare}"


def test_the_scan_sees_the_factorizations():
    # freefun._factor and schur._aim factor by Cholesky; a scan that finds neither checks nothing
    found = {p.stem for p in SOURCES if cholesky_calls(ast.parse(p.read_text()))}
    assert {"freefun", "schur"} <= found


def test_the_scan_flags_a_bare_call():
    src = ("import numpy as np\n"
           "def f(a):\n"
           "    try:\n"
           "        low = np.linalg.cholesky(a)\n"
           "    except np.linalg.LinAlgError:\n"
           "        low = np.linalg.cholesky(a + 1)\n"
           "    try:\n"
           "        np.linalg.cholesky(a)\n"
           "    except ValueError:\n"
           "        pass\n"
           "    return np.linalg.cholesky(low)\n")
    assert cholesky_calls(ast.parse(src)) == [(4, True), (6, False), (8, False), (11, False)]
