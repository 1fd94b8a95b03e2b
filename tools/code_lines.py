"""Count the code lines of the package, per module and in total.

A code line is a line of ``src/opmono/*.py`` that is not blank, not a
comment alone, and not inside a module, class or function docstring.
Unlike perfbench's ``loc.*`` figures, which count physical lines, the
count does not move when a docstring or comment is rewritten.

Run from the repository root: ``python tools/code_lines.py [SRC_DIR]``.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "opmono"


def docstring_lines(tree: ast.Module) -> set[int]:
    """The 1-based line numbers that module, class and function docstrings span."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    text = path.read_text()
    docs = docstring_lines(ast.parse(text))
    return sum(
        1 for number, line in enumerate(text.splitlines(), start=1)
        if line.strip() and not line.strip().startswith("#") and number not in docs
    )


def main(argv: list[str]) -> None:
    src = Path(argv[0]) if argv else PACKAGE
    counts = {path.stem: code_lines(path) for path in sorted(src.glob("*.py"))}
    width = max(map(len, counts))
    for name, count in counts.items():
        print(f"{name:<{width}}  {count:5d}")
    print(f"{'total':<{width}}  {sum(counts.values()):5d}")


if __name__ == "__main__":
    main(sys.argv[1:])
