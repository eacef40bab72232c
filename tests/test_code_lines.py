"""``tools/code_lines.py`` counts the lines that hold code: no blank line,
comment-only line or docstring line, while a multi-line string that is not
a docstring counts on every line."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))
import code_lines  # noqa: E402

SNIPPET = '''"""Module docstring,
over two lines."""

import os  # a trailing comment keeps the line

# a comment line


class A:
    """Class docstring."""

    def f(self):
        """Function
        docstring."""
        text = """a string
        that is not a docstring"""
        return os.sep + text
'''


def test_counts_a_known_snippet(tmp_path, capsys):
    # import, class, def, the string's two lines, return
    assert code_lines.code_lines(SNIPPET) == 6
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(SNIPPET)
    (tmp_path / "b.py").write_text("x = 1\n\n")
    assert code_lines.main([str(tmp_path / "pkg"), str(tmp_path / "b.py")]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["1", str(tmp_path / "b.py")], ["6", str(tmp_path / "pkg" / "a.py")],
                    ["7", "total"]]
