"""Self-test of the benchmark's traced run.

    python3 perfbench/selftest.py

For each workload it makes two traced runs and one untraced run of SECONDS
seconds with seed SEED, then checks that:

- every op passed its output check in all three runs;
- each per-layer metric is nonzero on the workloads that do its layer's
  work, and `.calls` is exactly zero where the layer is bypassed, which
  catches a wrapper installed on a name no caller looks up;
- every `.calls` and `.errors` count repeats exactly between the two traced
  runs, and no wrapped call raised.

It also prints the tracing overhead: untraced over traced ops_per_s.
Exit status 1 when a check fails.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("codec", "corpus", "matrix")
BOTH = {"codec", "corpus"}
SEED = 7
SECONDS = 3

# metric -> workloads on which it must be nonzero
NONZERO = {
    "arborescence.validate_tree.calls": BOTH,
    "arborescence.validate_tree.s": BOTH,
    "line_bijection.validate_tree_array.calls": BOTH,
    "line_bijection.validate_tree_array.s": BOTH,
    "line_bijection.validations_per_map": BOTH,
    "line_bijection.sigma.calls": BOTH,
    "line_bijection.sigma.self_s": BOTH,
    "line_bijection.pi.calls": BOTH,
    "line_bijection.pi.self_s": BOTH,
    # the codec builds its contexts once, in set-up, from given line graphs
    "line_bijection.LineContext.calls": BOTH,
    "line_bijection.LineContext.s": BOTH,
    "digraph.line_graph.calls": {"corpus"},
    "digraph.line_graph.s": {"corpus"},
    "db_codec.encode.self_s": {"codec"},
    "db_codec.decode.self_s": {"codec"},
    "db_codec.seq_to_path.s": {"codec"},
    "db_codec.path_to_seq.s": {"codec"},
    "arborescence.enumerate_trees.s": {"corpus"},
    "arborescence.kappa_vertex.s": {"corpus"},
    "arborescence.kappa_edge.s": {"corpus"},
    "arborescence.rhs_product.self_s": {"corpus"},
    "arborescence.bareiss_determinant.calls": {"matrix", "corpus"},
    "arborescence.bareiss_determinant.s": {"matrix", "corpus"},
    "crit_group.smith_normal_form.calls": {"matrix"},
    "crit_group.smith_normal_form.s": {"matrix"},
    "crit_group.smith_normal_form.max_factor_bits": {"matrix"},
    "crit_group.sandpile_group.self_s": {"matrix"},
    "digraph.is_strongly_connected.s": {"matrix"},
}

# layer -> workloads that must not call it at all
ZERO_CALLS = {
    "arborescence.validate_tree": {"matrix"},
    "line_bijection.validate_tree_array": {"matrix"},
    "line_bijection.sigma": {"matrix"},
    "line_bijection.pi": {"matrix"},
    "line_bijection.LineContext": {"matrix"},
    "digraph.line_graph": {"codec", "matrix"},
    "db_codec.encode": {"corpus", "matrix"},
    "db_codec.decode": {"corpus", "matrix"},
    "db_codec.seq_to_path": {"corpus", "matrix"},
    "db_codec.path_to_seq": {"corpus", "matrix"},
    "arborescence.enumerate_trees": {"codec", "matrix"},
    "arborescence.kappa_vertex": {"codec", "matrix"},
    "arborescence.kappa_edge": {"codec", "matrix"},
    "arborescence.rhs_product": {"codec", "matrix"},
    "arborescence.bareiss_determinant": {"codec"},
    "crit_group.smith_normal_form": {"codec", "corpus"},
    "crit_group.sandpile_group": {"codec", "corpus"},
    "digraph.is_strongly_connected": {"codec", "corpus"},
}


def bench(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"correct": result["correct"], "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def check_workload(workload: str) -> list[str]:
    first, second = bench(workload, SEED, SECONDS, 1), bench(workload, SEED, SECONDS, 1)
    plain = bench(workload, SEED, SECONDS, 0)
    problems = []
    for name, run in (("traced run 1", first), ("traced run 2", second), ("untraced run", plain)):
        if not run["correct"] or run["failed"]:
            problems.append(f"{name}: {run['failed']} ops failed")
    m = first["metrics"]
    for metric, where in NONZERO.items():
        if workload in where and not m[metric] > 0:
            problems.append(f"{metric} is {m[metric]}, expected nonzero")
    for layer, where in ZERO_CALLS.items():
        if workload in where and m[f"{layer}.calls"] != 0:
            problems.append(f"{layer}.calls is {m[f'{layer}.calls']}, expected 0")
    for metric, value in m.items():
        if metric.endswith((".calls", ".errors")) and second["metrics"][metric] != value:
            problems.append(f"{metric} differs between runs: {value} vs {second['metrics'][metric]}")
        if metric.endswith(".errors") and value:
            problems.append(f"{metric} is {value}")
    overhead = plain["metrics"]["ops_per_s"] / m["trace.ops_per_s"]
    print(f"{workload}: ops_per_s untraced {plain['metrics']['ops_per_s']:.4g}, "
          f"traced {m['trace.ops_per_s']:.4g}, overhead x{overhead:.3f}; "
          f"{'ok' if not problems else f'{len(problems)} problems'}", flush=True)
    return problems


def main() -> int:
    problems = []
    for workload in WORKLOADS:
        problems += [f"{workload}: {p}" for p in check_workload(workload)]
    for p in problems:
        print(p)
    print("self-test", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
