"""Per-layer tracing of linetrees from outside the library.

A traced run replaces the public functions named in TARGETS with wrappers
that record one span per call: name, start, end, parent span and op id.
Wrappers are installed wherever callers look the name up, since modules
import each other's functions by name (``line_bijection`` holds its own
reference to ``validate_tree``) and ``LineContext.sigma``/``pi`` are class
attributes.  Counts and times are aggregated online for every call; the
first MAX_SPANS spans are also kept in memory and written out at the end.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from pathlib import Path
from time import perf_counter

# (module, attribute, metric prefix); "Class.method" patches the class.
TARGETS = (
    ("digraph", "line_graph", "digraph.line_graph"),
    ("digraph", "is_strongly_connected", "digraph.is_strongly_connected"),
    ("arborescence", "validate_tree", "arborescence.validate_tree"),
    ("arborescence", "enumerate_trees", "arborescence.enumerate_trees"),
    ("arborescence", "kappa_vertex", "arborescence.kappa_vertex"),
    ("arborescence", "kappa_edge", "arborescence.kappa_edge"),
    ("arborescence", "rhs_product", "arborescence.rhs_product"),
    ("arborescence", "bareiss_determinant", "arborescence.bareiss_determinant"),
    ("line_bijection", "validate_tree_array", "line_bijection.validate_tree_array"),
    ("line_bijection", "LineContext.__init__", "line_bijection.LineContext"),
    ("line_bijection", "LineContext.sigma", "line_bijection.sigma"),
    ("line_bijection", "LineContext.pi", "line_bijection.pi"),
    ("db_codec", "encode", "db_codec.encode"),
    ("db_codec", "decode", "db_codec.decode"),
    ("db_codec", "seq_to_path", "db_codec.seq_to_path"),
    ("db_codec", "path_to_seq", "db_codec.path_to_seq"),
    ("crit_group", "smith_normal_form", "crit_group.smith_normal_form"),
    ("crit_group", "sandpile_group", "crit_group.sandpile_group"),
)

MAX_SPANS = 200_000


def metric_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {}
    for _, _, name in TARGETS:
        units.update({f"{name}.calls": "count", f"{name}.s": "s",
                      f"{name}.self_s": "s", f"{name}.errors": "count"})
    units["line_bijection.validations_per_map"] = "ratio"
    units["crit_group.smith_normal_form.max_factor_bits"] = "bits"
    units["trace.ops_per_s"] = "1/s"
    return units


class Tracer:
    """Span recorder; `op` is the id of the op in progress (-1 in set-up)."""

    def __init__(self):
        self.names = [name for _, _, name in TARGETS]
        k = len(self.names)
        self.calls = [0] * k
        self.total = [0.0] * k
        self.self_time = [0.0] * k
        self.errors = [0] * k
        self.max_factor_bits = 0
        self.op = -1
        self.t0 = perf_counter()
        self._stack: list[int] = []       # open span ids (-1: not stored)
        self._child: list[float] = []     # time covered by children, per open span
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.span_op = array("l")
        self.dropped = 0

    def install(self, lib) -> None:
        """Wrap every target in the freshly imported modules of `lib`."""
        loaded = [m for name, m in sys.modules.items()
                  if m is not None and (name == "linetrees" or name.startswith("linetrees."))]
        for idx, (mod_name, attr, _) in enumerate(TARGETS):
            mod = getattr(lib, mod_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, meth, self._wrap(idx, getattr(cls, meth)))
                continue
            original = getattr(mod, attr)
            wrapper = self._wrap(idx, original)
            for m in loaded:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)

    def _wrap(self, idx: int, fn):
        stack, child = self._stack, self._child
        snf = self.names[idx] == "crit_group.smith_normal_form"

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            sid = len(self.span_name)
            if sid < MAX_SPANS:
                self.span_name.append(idx)
                self.span_parent.append(parent)
                self.span_op.append(self.op)
                self.span_start.append(0.0)
                self.span_end.append(0.0)
            else:
                sid = -1
                self.dropped += 1
            stack.append(sid)
            child.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[idx] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                inner = child.pop()
                if child:
                    child[-1] += dur
                self.calls[idx] += 1
                self.total[idx] += dur
                self.self_time[idx] += dur - inner
                if sid >= 0:
                    self.span_start[sid] = start - self.t0
                    self.span_end[sid] = end - self.t0
            if snf:
                bits = max((abs(d).bit_length() for d in result.diagonal), default=0)
                self.max_factor_bits = max(self.max_factor_bits, bits)
            return result

        return traced

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = self.calls[i]
            out[f"{name}.s"] = self.total[i]
            out[f"{name}.self_s"] = self.self_time[i]
            out[f"{name}.errors"] = self.errors[i]
        maps = out["line_bijection.sigma.calls"] + out["line_bijection.pi.calls"]
        out["line_bijection.validations_per_map"] = (
            out["line_bijection.validate_tree_array.calls"] / maps if maps else 0.0)
        out["crit_group.smith_normal_form.max_factor_bits"] = self.max_factor_bits
        return out

    def write_spans(self, path: Path) -> int:
        """Write the kept spans as gzipped CSV; returns how many."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("id,name,start_s,end_s,parent,op\n")
            for sid in range(len(self.span_name)):
                f.write(f"{sid},{self.names[self.span_name[sid]]},{self.span_start[sid]:.9f},"
                        f"{self.span_end[sid]:.9f},{self.span_parent[sid]},{self.span_op[sid]}\n")
        return len(self.span_name)
