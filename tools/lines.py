"""Source and code lines per module of a package, and in total.

    python tools/lines.py [PACKAGE]

PACKAGE is a directory of Python modules, src/hetstab of this checkout by
default.  Source lines are counted as `wc -l` counts them (newlines).  A
code line is one that is not blank, not a comment alone and not part of a
docstring (the first statement of a module, class or function, when it is
a string).
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hetstab"


def counts(text: str) -> tuple[int, int]:
    """(source lines, code lines) of the module text."""
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    code = sum(1 for number, line in enumerate(text.splitlines(), 1)
               if line.strip() and not line.lstrip().startswith("#")
               and number not in docstrings)
    return text.count("\n"), code


def main(argv: list[str]) -> int:
    package = Path(argv[0]) if argv else PACKAGE
    rows = [(path.name, *counts(path.read_text(encoding="utf-8")))
            for path in sorted(package.glob("*.py"))]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    width = max(len(name) for name, _, _ in rows) + 2
    print(f"{'module':<{width}}{'source':>8}{'code':>8}")
    for name, source, code in rows:
        print(f"{name:<{width}}{source:>8}{code:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
