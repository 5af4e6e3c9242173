"""Run sets of benchmark runs and check that one commit's figures are steady.

    python3 perfbench/steadiness.py run --out A.jsonl
    python3 perfbench/steadiness.py compare A.jsonl [B.jsonl]

`run` calls run.py once per workload of BENCHMARK.json and seed 1-10, for
BENCHMARK.json's run_seconds, one run at a time, and appends each run's
record and result to the output file.  `compare` reports, for each
workload and end-to-end metric of BENCHMARK.json, the median and quartiles
over the set and the spread (quartile distance over median), which must
stay within the metric's bound.
Given a second set, it also reports how far the second median lies from
the first in the metric's worse direction, which must stay within the
bound for every metric.  Exit status 1 when any check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


SEEDS = range(1, 11)


def run_set(args) -> int:
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    status = 0
    with out.open("a") as f:
        for workload in [w["name"] for w in SPEC["workloads"]]:
            for seed in SEEDS:
                cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                                         "--seconds", str(SPEC["run_seconds"]), "--trace", "0"]
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or len(lines) < 2:
                    print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}",
                          file=sys.stderr)
                    status = 1
                    continue
                row = {"workload": workload, "seed": seed, **json.loads(lines[-2]),
                       "result": json.loads(lines[-1])}
                f.write(json.dumps(row) + "\n")
                f.flush()
                values = {k: round(v["value"], 4) for k, v in row["result"]["metrics"].items()}
                print(f"{workload} seed {seed}: failed {row['result']['failed']}/"
                      f"{row['result']['attempted']} {values}", flush=True)
    return status


def load(path: str) -> dict[tuple[str, str], list[float]]:
    values: dict[tuple[str, str], list[float]] = {}
    for line in Path(path).read_text().splitlines():
        row = json.loads(line)
        for name, m in row["result"]["metrics"].items():
            values.setdefault((row["workload"], name), []).append(m["value"])
        values.setdefault((row["workload"], "ops_failed"), []).append(row["result"]["failed"])
    return values


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def compare(args) -> int:
    first = load(args.first)
    second = load(args.second) if args.second else None
    ok = True
    print(f"{'workload':8} {'metric':12} {'n':>3} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6} {'shift':>7}  verdict")
    for w in SPEC["workloads"]:
        failed = first.get((w["name"], "ops_failed"), [])
        if any(failed):
            ok = False
            print(f"{w['name']:8} ops_failed {sum(failed)} over {len(failed)} runs  FAIL")
        for m in SPEC["end_to_end"]:
            vals = first.get((w["name"], m["name"]))
            if not vals or len(vals) < 2:
                print(f"{w['name']:8} {m['name']:12} missing")
                ok = False
                continue
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / med
            verdicts = []
            if spread > m["bound"]:
                verdicts.append("spread over bound")
            shift_txt = ""
            if second is not None:
                other = statistics.median(second[(w["name"], m["name"])])
                shift = (other - med) / med * (1 if m["better"] == "lower" else -1)
                shift_txt = f"{shift:+.3f}"
                if shift > m["bound"]:
                    verdicts.append("second median worse than bound")
            ok = ok and not verdicts
            print(f"{w['name']:8} {m['name']:12} {len(vals):3} {med:12.4f} {q1:12.4f} {q3:12.4f} "
                  f"{spread:7.3f} {m['bound']:6.2f} {shift_txt:>7}  "
                  f"{'; '.join(verdicts) or 'ok'}")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--out", required=True)
    c = sub.add_parser("compare")
    c.add_argument("first")
    c.add_argument("second", nargs="?")
    args = ap.parse_args(argv)
    return run_set(args) if args.cmd == "run" else compare(args)


if __name__ == "__main__":
    sys.exit(main())
