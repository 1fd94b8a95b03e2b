"""``tools/code_lines.py`` counts the lines that are neither blank, comment-only nor docstring."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(code_lines)

MODULE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment keeps its line


class Box:
    """Class docstring."""

    # a comment alone
    size = 1

    def area(self):
        """Function
        docstring."""
        text = """a string that is no docstring
        counts"""
        return self.size * math.pi


async def later():
    "one-line docstring"
    return None
'''


def test_docstrings_comments_and_blanks_are_not_counted(tmp_path, capsys):
    (tmp_path / "one.py").write_text(MODULE)
    (tmp_path / "two.py").write_text("x = 1\n\n# no\ny = x\n")
    # one.py: import, class, size, def area, the string's two lines, return, async def, return
    assert code_lines.code_lines(tmp_path / "one.py") == 9
    code_lines.main([str(tmp_path)])
    assert capsys.readouterr().out.split() == ["one", "9", "two", "2", "total", "11"]
