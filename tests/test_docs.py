"""The names that the docs point to exist.

Every `module.name` reference and every `_private` name in the docstrings
under src/hetstab, and every such name in backticks in README.md, must be an
attribute of hetstab.<module>, so a rename cannot leave a stale "see X".
A private name without a module is looked up in the docstring's own module,
then in every module.
"""

import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "hetstab"
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")
DOTTED = re.compile(rf"(?<![\w.])(?:{'|'.join(MODULES)})(?:\.\w+)+")
PRIVATE = re.compile(r"(?<![\w.|])_[A-Za-z]\w*(?:\.\w+)*")     # not a norm, ||y||_inf
FENCE = re.compile(r"^```.*?^```", re.S | re.M)


def _resolves(ref: str, home: str | None) -> bool:
    """Whether ref, dotted from a module name or a private name, is an attribute."""
    head, *rest = ref.split(".")
    if head in MODULES:
        owners = [head]
    else:
        rest = [head] + rest
        owners = ([home] if home else []) + MODULES
    for owner in owners:
        obj = importlib.import_module(f"hetstab.{owner}")
        for name in rest:
            obj = getattr(obj, name, None)
        if obj is not None:
            return True
    return False


def _docstrings(path: Path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
            doc = ast.get_docstring(node)
            if doc:
                yield doc


def _source_refs() -> list[tuple[str, str]]:
    refs = []
    for path in sorted(SRC.glob("*.py")):
        for doc in _docstrings(path):
            refs += [(path.stem, r) for r in DOTTED.findall(doc) + PRIVATE.findall(doc)]
    return refs


def _readme_refs() -> list[str]:
    text = FENCE.sub("", (ROOT / "README.md").read_text(encoding="utf-8"))
    spans = re.findall(r"`([^`\n]+)`", text)
    return [r for span in spans for r in DOTTED.findall(span) + PRIVATE.findall(span)]


def test_docstring_pointers_resolve():
    refs = _source_refs()
    assert ("transition", "oracle._gmaps") in refs
    assert ("stability", "_indices") in refs
    assert [(home, ref) for home, ref in refs if not _resolves(ref, home)] == []


def test_readme_pointers_resolve():
    refs = _readme_refs()
    assert "transition._node_index" in refs
    assert [ref for ref in refs if not _resolves(ref, None)] == []


def test_a_stale_pointer_is_caught():
    assert not _resolves("stability.no_such_name", None)
    assert not _resolves("_no_such_helper", "stability")
    assert not _resolves("_Spectra.no_such_method", "spectral")
