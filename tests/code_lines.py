"""Line counts of the package: all lines, and code lines.

A code line holds a token outside docstrings and comments; blank lines,
comment lines and the lines of a module, class or function docstring are
not code.  Prints one row per module of ``src/dessins``, or of another
package directory given as the argument, and their total::

    python tests/code_lines.py [PACKAGE_DIR]
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "dessins")

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree):
    """The line numbers that docstrings span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(text):
    """``(lines, code lines)`` of Python source ``text``."""
    docstrings = _docstring_lines(ast.parse(text))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE:
            code.update(l for l in range(tok.start[0], tok.end[0] + 1) if l not in docstrings)
    return len(text.splitlines()), len(code)


def main(src=SRC, out=sys.stdout):
    total = [0, 0]
    out.write(f"{'module':<16}{'lines':>7}{'code':>7}\n")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as fh:
                lines, code = count(fh.read())
            total[0] += lines
            total[1] += code
            out.write(f"{name:<16}{lines:>7}{code:>7}\n")
    out.write(f"{'total':<16}{total[0]:>7}{total[1]:>7}\n")


if __name__ == "__main__":
    main(*sys.argv[1:2])
