"""Shared harness of the scaling scripts: one child process per case and source tree.

Each case runs as `python -c CHILD <case...>` in a fresh interpreter whose
PYTHONPATH is one source tree, so its peak RSS is its own; the child prints
one JSON object.  A child that outlives the script's timeout shows as
"timeout" instead of stalling the table.  Give --src more than once to
compare source trees (e.g. a parent checkout's src/ and this one) in one
run; columns follow the order given.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Callable


def measure(src: Path, child: str, case: tuple, timeout_s: float) -> dict | None:
    env = {**os.environ, "PYTHONPATH": str(src)}
    try:
        proc = subprocess.run([sys.executable, "-c", child, *map(str, case)],
                              env=env, capture_output=True, text=True, timeout=timeout_s)
    except subprocess.TimeoutExpired:
        return None
    if proc.returncode != 0:
        raise RuntimeError(f"{case} with {src}: {proc.stderr.strip()}")
    return json.loads(proc.stdout)


def main(child: str, cases: list[tuple], timeout_s: float,
         label_header: list[str], label: Callable[[tuple], list[str]],
         columns: list[str], cells: Callable[[dict], list[str]]) -> dict[tuple, list]:
    """Print a Markdown table: `label(case)`, then `cells(result)` per source
    tree.  Return each case's results, one per source tree (None on timeout)."""
    root = Path(__file__).resolve().parent.parent
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", type=Path, action="append",
                        help="a src/ directory holding linetrees (default: this one's)")
    args = parser.parse_args()
    sources = args.src or [root / "src"]

    header = list(label_header)
    for i in range(len(sources)):
        header += [f"{c} [{i}]" for c in columns]
    for i, src in enumerate(sources):
        print(f"[{i}] {src}")
    print("| " + " | ".join(header) + " |")
    print("|" + " --- |" * len(header))
    results = {}
    for case in cases:
        row = label(case)
        results[case] = [measure(src, child, case, timeout_s) for src in sources]
        for r in results[case]:
            if r is None:
                row += [f"timeout (> {timeout_s:g} s)"] + ["-"] * (len(columns) - 1)
            else:
                row += cells(r)
        print("| " + " | ".join(row) + " |", flush=True)
    return results
