"""``tests/code_lines.py`` counts all lines and code lines of a package."""

import os
import subprocess
import sys

SCRIPT = os.path.join(os.path.dirname(__file__), "code_lines.py")

MODULE = '''"""A module docstring
over two lines."""

# a comment
X = 1


def f(a):
    """A function docstring."""
    # a comment inside
    return (a +
            X)  # a trailing comment
'''


def test_code_lines_counts_a_tiny_package(tmp_path):
    (tmp_path / "__init__.py").write_text("")
    (tmp_path / "m.py").write_text(MODULE)
    (tmp_path / "notes.txt").write_text("X = 1\n")
    out = subprocess.run([sys.executable, SCRIPT, str(tmp_path)],
                         capture_output=True, text=True, check=True).stdout
    # code lines: X = 1, def f(a):, and both lines of the return
    assert [line.split() for line in out.splitlines()] == [
        ["module", "lines", "code"],
        ["__init__.py", "0", "0"],
        ["m.py", "12", "4"],
        ["total", "12", "4"],
    ]
