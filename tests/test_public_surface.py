"""Every public name of the library has a caller in the program.

A public def, class or assignment in ``src/linetrees`` that only the tests
use is API nobody runs; it is deleted rather than kept alive by its tests.
A use is an AST ``Name`` read, an ``Attribute`` or an import alias anywhere
in ``src/``, ``scripts/`` or ``perfbench/`` (read only).

The same holds one level down.  A public method of a public class is used
only if some program file calls it as ``x.name(...)``, and a property only
if some program file reads ``x.name``.  A parameter with a default, of a
public function or method, is used only if some program call of that name
passes it, by keyword or by position (a ``*`` or ``**`` argument passes
every parameter).  Names are matched without types: a call of any object's
``name`` counts."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "linetrees"
PROGRAM_DIRS = ("src", "scripts", "perfbench")
PROPERTIES = {"property", "cached_property"}


def _modules(package: Path = PACKAGE) -> list[tuple[str, ast.Module]]:
    return [(path.stem, ast.parse(path.read_text())) for path in sorted(package.glob("*.py"))]


def _program(root: Path = ROOT) -> list[ast.AST]:
    return [node for top in PROGRAM_DIRS for path in sorted((root / top).rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))]


def public_members() -> dict[str, str]:
    """Public top-level names of each library module, as name -> module."""
    members = {}
    for module, tree in _modules():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                names = []
            members.update((name, module) for name in names if not name.startswith("_"))
    return members


def public_functions(package: Path = PACKAGE) -> dict[str, ast.FunctionDef]:
    """Public top-level functions as "module.name", and the public methods
    and properties of public classes as "module.Class.name", to their defs."""
    found = {}
    for module, tree in _modules(package):
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                found[f"{module}.{node.name}"] = node
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                found.update((f"{module}.{node.name}.{d.name}", d) for d in node.body
                             if isinstance(d, ast.FunctionDef) and not d.name.startswith("_"))
    return found


def _is_property(node: ast.FunctionDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id in PROPERTIES for d in node.decorator_list)


def _is_method(qualname: str) -> bool:
    return qualname.count(".") == 2


def program_uses() -> set[str]:
    used = set()
    for node in _program():
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.update(node.name.split("."))
    return used


def program_calls(root: Path = ROOT) -> dict[str, list[ast.Call]]:
    """Every call in the program, by the name it calls: f(...) and x.f(...)
    both fall under "f"."""
    calls: dict[str, list[ast.Call]] = {}
    for node in _program(root):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            calls.setdefault(name, []).append(node)
    return calls


def program_reads(root: Path = ROOT) -> set[str]:
    """The attribute names that some program file reads, as x.name."""
    return {node.attr for node in _program(root)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def unused_methods(package: Path = PACKAGE, root: Path = ROOT) -> list[str]:
    """Public methods that no program file calls as x.name(...), and
    properties that none reads."""
    calls, reads = program_calls(root), program_reads(root)
    unused = []
    for qualname, node in public_functions(package).items():
        if not _is_method(qualname):
            continue
        if _is_property(node):
            unused += [] if node.name in reads else [qualname]
        elif not any(isinstance(c.func, ast.Attribute) for c in calls.get(node.name, ())):
            unused.append(qualname)
    return unused


def _passes(call: ast.Call, name: str, position: int | None) -> bool:
    """Whether the call passes the parameter `name`, by keyword or, when it
    may be given by position, as its `position`-th positional argument."""
    if any(k.arg is None or k.arg == name for k in call.keywords):
        return True
    if position is None:
        return False
    return (len(call.args) > position
            or any(isinstance(a, ast.Starred) for a in call.args[:position + 1]))


def defaulted_parameters(node: ast.FunctionDef, method: bool) -> list[tuple[str, int | None]]:
    """The parameters with defaults, each with its position among the
    arguments a call passes (None for keyword-only); a method's call
    passes self as x in x.name(...)."""
    args = node.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    found = [(a.arg, i - method) for i, a in enumerate(positional) if i >= first]
    found += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return found


def unset_parameters(package: Path = PACKAGE, root: Path = ROOT) -> list[str]:
    """Defaulted parameters of public functions and methods that no program
    call of that name passes, as "module.function(parameter=)"."""
    calls = program_calls(root)
    unset = []
    for qualname, node in public_functions(package).items():
        method = _is_method(qualname)
        for name, position in defaulted_parameters(node, method):
            if not any(_passes(c, name, position) for c in calls.get(node.name, ())):
                unset.append(f"{qualname}({name}=)")
    return unset


def test_every_public_member_has_a_program_caller():
    members, used = public_members(), program_uses()
    assert "DiGraph" in members and "validate_tree_array" in members
    unused = sorted(f"{module}.{name}" for name, module in members.items() if name not in used)
    assert unused == [], f"public members only tests use: {unused}"


def test_every_public_method_has_a_program_caller():
    functions = public_functions()
    assert "digraph.DiGraph.vertex_label" in functions
    assert _is_property(functions["digraph.DiGraph.m"])
    unused = unused_methods()
    assert unused == [], f"public methods and properties only tests use: {unused}"


def test_every_defaulted_parameter_is_set_by_a_program_call():
    functions = public_functions()
    assert ("bound", 2) in defaulted_parameters(functions["arborescence.enumerate_trees"], False)
    assert ("order", 1) in defaulted_parameters(functions["line_bijection.LineContext.sigma"],
                                                True)
    unset = unset_parameters()
    assert unset == [], f"defaulted parameters only tests set: {unset}"


def test_a_call_passes_a_parameter_by_keyword_position_or_star():
    def call(text):
        return ast.parse(text).body[0].value

    assert _passes(call("f(g, 10)"), "bound", 1) and _passes(call("f(g, bound=10)"), "bound", 1)
    assert _passes(call("f(*args)"), "bound", 1) and _passes(call("f(**kw)"), "bound", None)
    assert not _passes(call("f(g)"), "bound", 1) and not _passes(call("f(g, 1)"), "bound", None)
    assert not _passes(call("f(g, root=1)"), "bound", 1)


# A made-up library and the program that uses it: the private class and
# method are out of scope, and a bare call step(...) passes step's
# parameters (names match without types) but does not call the method.
LIBRARY = """
class Graph:
    def step(self, k=1): ...
    @property
    def size(self): ...
    def _hidden(self, flag=False): ...

class _Private:
    def never(self, flag=False): ...

def walk(g, bound=10, *, root=None): ...
"""
STEP, SIZE = "lib.Graph.step", "lib.Graph.size"
K, BOUND, ROOT_ARG = "lib.Graph.step(k=)", "lib.walk(bound=)", "lib.walk(root=)"


@pytest.mark.parametrize("program,unused,unset", [
    ("", [STEP, SIZE], [K, BOUND, ROOT_ARG]),
    ("g.step()\nprint(g.size)", [], [K, BOUND, ROOT_ARG]),
    ("g.step(2)", [SIZE], [BOUND, ROOT_ARG]),
    ("g.step(k=2)\ng.size = 3", [SIZE], [BOUND, ROOT_ARG]),
    ("step(2)", [STEP, SIZE], [BOUND, ROOT_ARG]),
    ("walk(g, 5)", [STEP, SIZE], [K, ROOT_ARG]),
    ("walk(g, root=0)", [STEP, SIZE], [K, BOUND]),
    ("walk(*args)", [STEP, SIZE], [K, ROOT_ARG]),
    ("walk(g, **options)", [STEP, SIZE], [K]),
])
def test_the_method_and_parameter_rules_on_a_made_up_program(tmp_path, program, unused, unset):
    package = tmp_path / "src" / "lib"
    package.mkdir(parents=True)
    (package / "lib.py").write_text(LIBRARY)
    (tmp_path / "scripts").mkdir()
    (tmp_path / "scripts" / "run.py").write_text(program)
    assert unused_methods(package, tmp_path) == unused
    assert unset_parameters(package, tmp_path) == unset
