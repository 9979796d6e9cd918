"""numpy's eigen routines are called in one place, and the dominant
eigenvalue has one rule, and the oracle stays independent of both.

Every eigendecomposition in the package goes through spectral._eig, so
each full return is decomposed by one rule and once per analysis.  The
source of src/hetstab is scanned for any other use of eig, eigvals, eigh or
eigvalsh: an attribute, a name or an import.  It is also scanned for every
place a NoAdmissibleDominant is built, which must be one function.  The
Monte-Carlo oracle checks the analytic indices, so its imports are scanned
too: nothing from spectral, and from stability only IndeterminateError;
and it may not use any of the eigen routines itself.  No __post_init__
calls float(): every caller's number goes through the number rule of
cycle.py.  The package reads no environment variable: every setting is an
argument.  Every module-level name outside hetstab.__all__ must be used by
package code, so no private function, class or constant is kept for tests
alone.  Last, each public name is written once: in the __all__ of the
module that defines it, which hetstab/__init__.py star-imports.
"""

import ast
from pathlib import Path

import hetstab

SRC = Path(__file__).resolve().parents[1] / "src" / "hetstab"
ROUTINES = {"eig", "eigvals", "eigh", "eigvalsh"}


class _Uses(ast.NodeVisitor):
    """The dotted scope (module.class.function) of every use of a name in
    names (a routine by default)."""

    def __init__(self, module: str, names=ROUTINES):
        self.scope = [module]
        self.names = names
        self.found: list[str] = []

    def _enter(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = _enter

    def _check(self, name: str | None):
        if name in self.names:
            self.found.append(".".join(self.scope))

    def visit_Attribute(self, node):
        self._check(node.attr)
        self.generic_visit(node)

    def visit_Name(self, node):
        self._check(node.id)

    def visit_alias(self, node):
        self._check(node.name.rsplit(".", 1)[-1])
        self._check(node.asname)


class _Calls(_Uses):
    """The dotted scope of every call of a name in names: a mention that is
    not called (an import, a raise of a kept error, an except) is not one."""

    def visit_Call(self, node):
        func = node.func
        self._check(func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None))
        self.generic_visit(node)

    def visit_Attribute(self, node):
        self.generic_visit(node)

    def visit_Name(self, node):
        pass

    def visit_alias(self, node):
        pass


def _scan(visitor=_Uses, *names) -> list[str]:
    found = []
    for path in sorted(SRC.glob("*.py")):
        uses = visitor(path.stem, *names)
        uses.visit(ast.parse(path.read_text(encoding="utf-8")))
        found += uses.found
    return found


def test_only_spectral_eig_calls_numpy_eigen_routines():
    uses = _scan()
    assert "spectral._eig" in uses
    assert [scope for scope in uses if scope != "spectral._eig"] == []


def test_the_scan_sees_every_form_of_use():
    source = ("import numpy.linalg.eigh\nfrom numpy.linalg import eigvalsh as e\n"
              "class A:\n    def f(self):\n        return np.linalg.eigvals(x) + eig(x)\n")
    uses = _Uses("m")
    uses.visit(ast.parse(source))
    assert uses.found == ["m", "m", "m.A.f", "m.A.f"]


ENVIRONMENT = {"environ", "environb", "getenv", "putenv"}


def test_the_package_reads_no_environment_variable():
    # every setting is an argument, so the same call gives the same result
    # in any shell
    assert _scan(_Uses, ENVIRONMENT) == []


def test_the_environment_scan_sees_every_form_of_read():
    source = ("import os\nfrom os import environ\nfrom os import getenv as g\n"
              "def f():\n    return os.environ.get('X'), os.getenv('Y')\n"
              "def h():\n    os.putenv('Z', '1')\n    return os.environb[b'W']\n")
    uses = _Uses("m", ENVIRONMENT)
    uses.visit(ast.parse(source))
    assert uses.found == ["m", "m", "m.f", "m.f", "m.h", "m.h"]


def test_one_function_builds_no_admissible_dominant():
    assert sorted(set(_scan(_Calls, {"NoAdmissibleDominant"}))) == ["spectral._no_dominant"]


def test_the_call_scan_sees_only_calls():
    source = ("from spectral import NoAdmissibleDominant as N\n"
              "def f():\n    raise spectral.NoAdmissibleDominant('x')\n"
              "def g():\n    return NoAdmissibleDominant\n"
              "def h():\n    return [NoAdmissibleDominant(m) for m in ms]\n")
    calls = _Calls("m", {"NoAdmissibleDominant"})
    calls.visit(ast.parse(source))
    assert calls.found == ["m.f", "m.h"]


def _in_post_init(scopes: list[str]) -> list[str]:
    """The scopes that lie in a __post_init__, or in a function inside one."""
    return [scope for scope in scopes if "__post_init__" in scope.split(".")]


def test_no_post_init_calls_float():
    # a caller's value is read as a number by the number rule (cycle._real,
    # cycle._reals), so no dataclass parses a string or drops an imaginary
    # part with a float() of its own
    calls = _scan(_Calls, {"float"})
    assert "cycle._real" in calls
    assert _in_post_init(calls) == []


def test_the_float_scan_sees_every_call_in_a_post_init():
    source = ("class A:\n    def __post_init__(self):\n"
              "        self.x = tuple(float(v) for v in self.x)\n"
              "        def inner():\n            return builtins.float(1)\n"
              "class B:\n    def __post_init__(self):\n        return float\n"
              "    def f(self):\n        return float(1)\n")
    calls = _Calls("m", {"float"})
    calls.visit(ast.parse(source))
    assert calls.found == ["m.A.__post_init__", "m.A.__post_init__.inner", "m.B.f"]
    assert _in_post_init(calls.found) == ["m.A.__post_init__", "m.A.__post_init__.inner"]


def _imported(source: str) -> list[tuple[str, ...]]:
    """The dotted path of every name that source imports, as a tuple of its
    parts; a relative import keeps the parts after its dots."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [tuple(alias.name.split(".")) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = tuple(node.module.split(".")) if node.module else ()
            found += [base + (alias.name,) for alias in node.names]
    return found


def test_the_oracle_takes_no_eigen_data():
    source = (SRC / "oracle.py").read_text(encoding="utf-8")
    imported = _imported(source)
    assert [path for path in imported if "spectral" in path] == []
    assert [path for path in imported if "stability" in path] == [
        ("stability", "IndeterminateError")]
    # its basin certificate (oracle._cone) finds its direction by its own
    # power iteration: no linalg.eig or eigvals call, in any form
    uses = _Uses("oracle")
    uses.visit(ast.parse(source))
    assert uses.found == []


def test_the_import_scan_sees_every_form_of_import():
    source = ("import hetstab.spectral\nfrom . import spectral as s\n"
              "def f():\n    from .stability import classify, IndeterminateError\n")
    assert _imported(source) == [("hetstab", "spectral"), ("spectral",),
                                 ("stability", "classify"), ("stability", "IndeterminateError")]


class _Loads(_Uses):
    """(scope, name) for every read of a name in names: an import or an
    assignment to it is not one."""

    def _check(self, name: str | None):
        if name in self.names:
            self.found.append((".".join(self.scope), name))

    def visit_Name(self, node):
        if not isinstance(node.ctx, ast.Store):
            super().visit_Name(node)

    def visit_alias(self, node):
        pass


def _module_names(tree: ast.Module) -> list[str]:
    """Every function, class and variable that the body of tree defines."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return names


def _unread_names(sources: dict[str, str], public) -> list[str]:
    """module.name for every name outside public, and not a dunder, that the
    module of sources (module -> source) defines and no package code reads
    outside that name's own definition."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    defined = {(module, name) for module, tree in trees.items() for name in _module_names(tree)
               if name not in public and not (name.startswith("__") and name.endswith("__"))}
    reads = []
    for module, tree in trees.items():
        loads = _Loads(module, {name for _, name in defined})
        loads.visit(tree)
        reads += loads.found

    def read(module: str, name: str) -> bool:
        own = f"{module}.{name}"
        return any(n == name and scope != own and not scope.startswith(own + ".")
                   for scope, n in reads)

    return sorted(f"{module}.{name}" for module, name in defined if not read(module, name))


def test_every_name_outside_the_api_is_read_by_the_package():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert _unread_names(sources, set(hetstab.__all__)) == []


def test_the_unread_name_scan_sees_reads_only():
    sources = {
        "a": ("from .b import _helper, _unused\nLIMIT = 2\n_SPARE = 3\n"
              "def _loop(n):\n    return _loop(n - 1)\n"
              "class _Kept:\n    def f(self):\n        return _helper(LIMIT)\n"),
        "b": "def _helper(x):\n    return x\ndef _unused():\n    return 0\n_SPARE = 1\n",
        "c": "import a\ndef public():\n    return a._Kept()\n",
    }
    assert _unread_names(sources, {"public"}) == [
        "a._SPARE", "a._loop", "b._SPARE", "b._unused"]


def _listed(tree: ast.Module) -> list[str]:
    """The names of the module's __all__, a list of string literals, or []
    when it has none."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return []


def test_each_public_name_is_listed_once_by_the_module_that_defines_it():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py")) if path.stem != "__init__"}
    listed = {module: _listed(tree) for module, tree in trees.items()}
    # no module lists a name it does not define
    assert {module: sorted(set(names) - set(_module_names(trees[module])))
            for module, names in listed.items()} == {module: [] for module in trees}
    for name in hetstab.__all__[1:]:
        owners = [module for module, names in listed.items() for n in names if n == name]
        assert owners == [getattr(hetstab, name).__module__.rsplit(".", 1)[-1]], name
    assert hetstab.__all__[0] == "__version__"


def test_the_package_imports_no_public_name_by_name():
    # every public name comes from its module's __all__, by a star import
    source = (SRC / "__init__.py").read_text(encoding="utf-8")
    assert [path for path in _imported(source) if path[-1] in hetstab.__all__] == []
    assert [path[0] for path in _imported(source) if path[-1] == "*"] == [
        "cycle", "transition", "spectral", "findex", "stability", "oracle", "rsp"]


def test_the_list_scan_reads_the_module_all_only():
    tree = ast.parse("x = 1\n__all__ = ['f', 'C']\n"
                     "def f():\n    __all__ = ['g']\nclass C:\n    pass\n")
    assert _listed(tree) == ["f", "C"]
    assert _listed(ast.parse("def f():\n    pass\n")) == []
