"""numpy's eigen routines are called in one place.

Every eigendecomposition in the package goes through spectral._eig, so
each full return is decomposed by one rule and once per analysis.  The
source of src/hetstab is scanned for any other use of eig, eigvals, eigh or
eigvalsh: an attribute, a name or an import.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "hetstab"
ROUTINES = {"eig", "eigvals", "eigh", "eigvalsh"}


class _Uses(ast.NodeVisitor):
    """The dotted scope (module.class.function) of every use of a routine."""

    def __init__(self, module: str):
        self.scope = [module]
        self.found: list[str] = []

    def _enter(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = _enter

    def _check(self, name: str | None):
        if name in ROUTINES:
            self.found.append(".".join(self.scope))

    def visit_Attribute(self, node):
        self._check(node.attr)
        self.generic_visit(node)

    def visit_Name(self, node):
        self._check(node.id)

    def visit_alias(self, node):
        self._check(node.name.rsplit(".", 1)[-1])
        self._check(node.asname)


def _routine_uses() -> list[str]:
    found = []
    for path in sorted(SRC.glob("*.py")):
        uses = _Uses(path.stem)
        uses.visit(ast.parse(path.read_text(encoding="utf-8")))
        found += uses.found
    return found


def test_only_spectral_eig_calls_numpy_eigen_routines():
    uses = _routine_uses()
    assert "spectral._eig" in uses
    assert [scope for scope in uses if scope != "spectral._eig"] == []


def test_the_scan_sees_every_form_of_use():
    source = ("import numpy.linalg.eigh\nfrom numpy.linalg import eigvalsh as e\n"
              "class A:\n    def f(self):\n        return np.linalg.eigvals(x) + eig(x)\n")
    uses = _Uses("m")
    uses.visit(ast.parse(source))
    assert uses.found == ["m", "m", "m.A.f", "m.A.f"]
