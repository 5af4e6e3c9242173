"""The benchmark's per-layer tracer wraps library functions by name; each
name it lists must exist, so that renaming or deleting one fails here
rather than in the middle of a benchmark run."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_tracer_targets_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for mod_name, attr, _ in tracer.TARGETS:
        owner = importlib.import_module(f"linetrees.{mod_name}")
        for part in attr.split("."):  # "Class.method" resolves on the class
            assert hasattr(owner, part), f"linetrees.{mod_name}.{attr} is missing"
            owner = getattr(owner, part)
        assert callable(owner), f"linetrees.{mod_name}.{attr} is not callable"
