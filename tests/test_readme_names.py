"""README names only what the package has.

Every private name (``_x``) and every ``linetrees.<module>`` path that
README.md writes in backticks must name a module, function, class or class
attribute of the package, so deleting a helper that the README still
describes fails here."""

import inspect
import pkgutil
import re
from importlib import import_module
from pathlib import Path

import linetrees

README = Path(__file__).resolve().parent.parent / "README.md"
MODULES = [import_module(f"linetrees.{info.name}")
           for info in pkgutil.iter_modules(linetrees.__path__)]


def _defined(name: str) -> bool:
    # a module-level name of some module, or an attribute of a class one defines
    for module in MODULES:
        if hasattr(module, name):
            return True
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__ and name in vars(cls):
                return True
    return False


def _resolves(path: str) -> bool:
    # linetrees.<module>[.<attribute>...]
    _, module, *attributes = path.split(".")
    try:
        obj = import_module(f"linetrees.{module}")
    except ImportError:
        return False
    for attribute in attributes:
        if not hasattr(obj, attribute):
            return False
        obj = getattr(obj, attribute)
    return True


def stale_names(text: str) -> list[str]:
    """The backticked private names and package paths in text that name nothing."""
    stale = []
    for span in re.findall(r"`([^`\n]+)`", text):
        stale += [name for name in re.findall(r"(?<!\w)_[A-Za-z]\w*", span)
                  if not _defined(name)]
        stale += [path for path in re.findall(r"\blinetrees(?:\.\w+)+", span)
                  if not _resolves(path)]
    return stale


def test_readme_names_only_what_exists():
    text = README.read_text()
    assert stale_names(text) == []
    # the README does name private helpers and module paths
    assert "`_sigma(" in text and "`linetrees.elimination`" in text


def test_a_deleted_name_is_stale():
    text = ("`_sigma` and `_no_such_helper`, `ctx._checked_order`, `LineContext._gone`, "
            "`linetrees.line_bijection`, `linetrees.no_such_module`, "
            "`linetrees.errors.integers`, `linetrees.errors.no_such_name`, _unquoted")
    assert stale_names(text) == ["_no_such_helper", "_gone", "linetrees.no_such_module",
                                 "linetrees.errors.no_such_name"]
