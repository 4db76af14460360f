"""Print each ``src/delta_lab`` module's total and code lines, and the totals.

Code lines leave out blank lines, comment lines, and the lines of module,
class and function docstrings.  Run from the repository root:

    python3 tools/code_lines.py

It reports only; the exit status is 0 whatever the counts.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent / "src" / "delta_lab"


def _docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers of every module, class and function docstring."""
    out: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        body = node.body
        if (body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            out.update(range(body[0].lineno, body[0].end_lineno + 1))
    return out


def count(source: str) -> tuple[int, int]:
    """Total lines and code lines of one module's source."""
    lines = source.splitlines()
    skip = _docstring_lines(ast.parse(source))
    # a line whose only tokens are a comment and layout holds no code
    has_code: set[int] = set()
    layout = (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
              tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER)
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in layout:
            has_code.update(range(tok.start[0], tok.end[0] + 1))
    code = sum(1 for i in range(1, len(lines) + 1)
               if i in has_code and i not in skip)
    return len(lines), code


def main() -> int:
    rows = []
    for path in sorted(ROOT.rglob("*.py")):
        total, code = count(path.read_text(encoding="utf-8"))
        rows.append((str(path.relative_to(ROOT.parent)), total, code))
    width = max(len(name) for name, _, _ in rows)
    print(f"{'module':<{width}}  {'total':>6}  {'code':>6}")
    for name, total, code in rows:
        print(f"{name:<{width}}  {total:>6}  {code:>6}")
    print(f"{'all':<{width}}  {sum(r[1] for r in rows):>6}  "
          f"{sum(r[2] for r in rows):>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
