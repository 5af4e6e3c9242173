"""Every public top-level name of the library has a caller in the program.

A public def, class or assignment in ``src/linetrees`` that only the tests
use is API nobody runs; it is deleted rather than kept alive by its tests.
A use is an AST ``Name`` read, an ``Attribute`` or an import alias anywhere
in ``src/``, ``scripts/`` or ``perfbench/`` (read only)."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "linetrees"
PROGRAM_DIRS = ("src", "scripts", "perfbench")


def public_members() -> dict[str, str]:
    """Public top-level names of each library module, as name -> module."""
    members = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                names = []
            members.update((name, path.stem) for name in names if not name.startswith("_"))
    return members


def program_uses() -> set[str]:
    used = set()
    for top in PROGRAM_DIRS:
        for path in (ROOT / top).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif isinstance(node, ast.alias):
                    used.update(node.name.split("."))
    return used


def test_every_public_member_has_a_program_caller():
    members, used = public_members(), program_uses()
    assert "DiGraph" in members and "validate_tree_array" in members
    unused = sorted(f"{module}.{name}" for name, module in members.items() if name not in used)
    assert unused == [], f"public members only tests use: {unused}"
