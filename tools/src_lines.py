"""Count the lines of the package's modules.

For each module under src/growth_frictions, and in total, prints all lines
and code lines: non-blank lines that hold a token other than a comment,
outside docstrings (the string that opens a module, class or function).

    python tools/src_lines.py [ROOT]

ROOT is the repository to count (default: the one holding this script).
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER, tokenize.ENCODING}


def _docstring_lines(tree) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(text: str) -> tuple:
    """(all lines, code lines) of one module's source."""
    docstrings, code = _docstring_lines(ast.parse(text)), set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code - docstrings)


def main(argv) -> None:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent
    rows = [(path.name, *count(path.read_text()))
            for path in sorted((root / "src" / "growth_frictions").glob("*.py"))]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    print(f"{'module':<14}{'lines':>7}{'code':>7}")
    for name, lines, code in rows:
        print(f"{name:<14}{lines:>7}{code:>7}")


if __name__ == "__main__":
    main(sys.argv)
