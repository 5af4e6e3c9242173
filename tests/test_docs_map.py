"""README.md is the map, and the module docstrings are the notes.

The layout table has one short row per module, the README lists every
script, and every private name and ``linetrees.<module>`` path that a
docstring of the package cites names something, by the rules of
test_readme_names."""

import ast
import pkgutil
import re
from pathlib import Path

import linetrees
from test_readme_names import _defined, _resolves

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
PACKAGE = Path(linetrees.__file__).resolve().parent


def _layout_rows() -> list[tuple[str, str]]:
    text = README.read_text()
    section = text[text.index("## Library layout"):]
    return re.findall(r"^\| `linetrees\.(\w+)` \| (.*) \|$", section, re.M)


def test_each_module_has_one_short_layout_row():
    rows = _layout_rows()
    modules = [info.name for info in pkgutil.iter_modules(linetrees.__path__)]
    assert sorted(name for name, _ in rows) == sorted(modules)
    for name, contents in rows:     # at most two sentences
        assert len(re.findall(r"[.!?](?:\s|$)", contents)) <= 2, name


def test_the_readme_lists_every_script():
    text = README.read_text()
    scripts = sorted(p.name for p in (ROOT / "scripts").glob("*.py"))
    assert "scaling.py" in scripts     # the harness the scaling scripts share
    assert [s for s in scripts if s != "scaling.py" and f"python scripts/{s}" not in text] == []


def _docstrings(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if (text := ast.get_docstring(node, clean=False)) is not None:
                yield text


def stale_docstring_names() -> list[tuple[str, str]]:
    """(file, name) for each private name or package path that a docstring
    of the package writes, backticked or not, and that names nothing."""
    stale = []
    for path in sorted(PACKAGE.glob("*.py")):
        for text in _docstrings(ast.parse(path.read_text())):
            stale += [(path.name, name) for name in re.findall(r"(?<!\w)_[A-Za-z]\w*", text)
                      if not _defined(name)]
            stale += [(path.name, p) for p in re.findall(r"\blinetrees(?:\.\w+)+", text)
                      if not _resolves(p)]
    return stale


def test_docstrings_name_only_what_exists():
    assert stale_docstring_names() == []
    # the docstrings do cite private helpers and module paths
    assert "_unit_pivots" in ast.get_docstring(ast.parse((PACKAGE / "elimination.py").read_text()))
    assert "linetrees.elimination" in (PACKAGE / "arborescence.py").read_text()
