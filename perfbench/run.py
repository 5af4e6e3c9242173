"""linetrees benchmark: one workload per process, one client, closed loop.

    python3 perfbench/run.py --workload codec|corpus|matrix --seed N \
        --seconds S --trace 0|1

Run from the repository root.  Inputs are generated from the seed by
perfbench/gen.py; the library (imported from src/) only ever sees them.
Each op calls the library's public functions one after another (the next
call starts when the previous one returns), timed from outside, and its
outputs are checked against expectations computed here.  A failed check or
an exception counts the op as failed; nothing is raised.

With --trace 0 the last line of stdout is the result with the end-to-end
metrics, times scaled to a quiet host by a probe (see PROBE_QUIET_S).  With
--trace 1 the public functions in tracer.TARGETS are wrapped, the result
carries the per-layer metrics instead, and the spans are written to
.perfbench_out/.  The line before the result is a record with the
interpreter, commit, nproc, seed, and the metrics raw and scaled under
their per-workload names.  Exit status is 0 with a result, non-zero
without one.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
import tracer  # noqa: E402

MODULES = ("digraph", "arborescence", "line_bijection", "db_codec", "crit_group")
# setup_s is the median of this many cold set-ups.  Over ten seeds on a
# 2-core Xeon VM, a single set-up spread by up to 0.23 (quartile distance
# over median, two sets per workload) and the median of three by up to 0.14.
SETUP_REPS = 3
CODEC_DEGREE = 12
IDENTITY_BOUND = 10 ** 8
# On a shared host the CPU speed can drift by up to 1.8x over tens of
# seconds (seen on a 2-core Xeon VM), for the library and for any
# pure-Python loop alike.  The end-to-end times are therefore reported scaled by a probe timed between
# ops: seconds * PROBE_QUIET_S / probe time, i.e. the time the call would
# have taken on the host when the probe takes PROBE_QUIET_S (its median on
# a quiet 2-core Xeon VM under CPython 3.11).  Raw times go in the record.
PROBE_QUIET_S = 0.0066
PROBE_EVERY_S = 0.25
GROUP_GRAPHS = (("db", 2, 8), ("db", 3, 5), ("db", 4, 4), ("kautz", 2, 8), ("kautz", 3, 5))
TREE_GRAPHS = (("db", 2, 5), ("db", 2, 6), ("db", 3, 3), ("kautz", 2, 5), ("kautz", 3, 3))


def load_library() -> SimpleNamespace:
    """Import linetrees from src/ afresh, so each set-up starts cold."""
    for name in [n for n in sys.modules if n == "linetrees" or n.startswith("linetrees.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    lib = SimpleNamespace(**{m: importlib.import_module(f"linetrees.{m}") for m in MODULES})
    for m in MODULES:
        if Path(getattr(lib, m).__file__).resolve().parent != SRC / "linetrees":
            raise ImportError(f"linetrees.{m} was not imported from {SRC}")
    return lib


def timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


# --- workloads ----------------------------------------------------------------
#
# Each workload has set-up (input generation and warm-up, all counted in
# setup_s), `op(i)` returning ({kind: seconds in library calls}, ok), a
# `round` (ops are only stopped at a multiple of it), a minimum op count
# (enough samples for its percentiles), and a nominal op rate that fixes
# the op count of a traced run, so that traced counts repeat exactly.


class Codec:
    kinds = ("encode", "decode")
    round = 1
    min_ops = 3
    trace_rate = 0.6

    def __init__(self, lib, rng: random.Random, seconds: float):
        self.lib = lib
        # ops cycle through the pool if a run gets through it
        self.seqs = [gen.random_debruijn(rng, CODEC_DEGREE)
                     for _ in range(math.ceil(seconds) + self.min_ops)]
        lib.db_codec.decode(gen.random_code(rng, CODEC_DEGREE), CODEC_DEGREE)

    def op(self, i: int):
        codec = self.lib.db_codec
        seq = self.seqs[i % len(self.seqs)]
        code, t_enc = timed(codec.encode, seq, CODEC_DEGREE)
        back, t_dec = timed(codec.decode, code, CODEC_DEGREE)
        ok = (len(code) == 2 ** (CODEC_DEGREE - 1) and not set(code) - {"0", "1"}
              and back == seq)
        return {"encode": t_enc, "decode": t_dec}, ok


class Corpus:
    kinds = ("graph",)
    round = 1
    min_ops = 100   # graph_p90 needs ten samples beyond it
    trace_rate = 25.0

    def __init__(self, lib, rng: random.Random, seconds: float):
        self.lib = lib
        stream = gen.corpus_stream(rng, math.ceil(60 * seconds) + self.min_ops)
        self.graphs = [(lib.digraph.DiGraph(n, edges), edges, gen.edge_order(rng, len(edges)))
                       for n, edges in stream]
        lib.arborescence.knuth_check(self.graphs[0][0])

    def op(self, i: int):
        arb, lb = self.lib.arborescence, self.lib.line_bijection
        g, edges, order = self.graphs[i % len(self.graphs)]
        arrays_expected = gen.array_count(g.n, edges)
        start = time.perf_counter()
        identity = arb.verify_identity(g, "expand", IDENTITY_BOUND)
        knuth = arb.knuth_check(g)
        round_trip = None
        if arrays_expected <= gen.BIJECTION_CAP:
            ctx = lb.LineContext(g)
            arrays = list(lb.enumerate_tree_arrays(g))
            images = [ctx.sigma(a, order) for a in arrays]
            backs = [ctx.pi(t, order) for t in images]
            line_trees = arb.enumerate_trees(ctx.line, None, IDENTITY_BOUND)
            round_trip = (arrays, images, backs, line_trees)
        elapsed = time.perf_counter() - start

        kappa = gen.tree_count(g.n, edges)
        kappa_line = gen.tree_count(g.m, gen.line_graph_edges(edges))
        ok = (identity.holds and knuth.holds and knuth.kappa_base == kappa
              and knuth.kappa_line == kappa_line
              and knuth.degree_product == gen.degree_product(g.n, edges))
        if round_trip is not None:
            arrays, images, backs, line_trees = round_trip
            ok = (ok and len(arrays) == arrays_expected and backs == arrays
                  and len(line_trees) == kappa_line and set(images) == set(line_trees))
        return {"graph": elapsed}, ok


class Matrix:
    kinds = ("group", "trees")
    round = 2 * len(GROUP_GRAPHS)   # group and trees ops alternate
    min_ops = round
    trace_rate = 2.5

    def __init__(self, lib, rng: random.Random, seconds: float):
        self.lib = lib
        base = {spec: gen.family_edges(*spec) for spec in GROUP_GRAPHS + TREE_GRAPHS}
        self.expected_group = {spec: gen.invariant_factors(gen.family_cyclic_orders(*spec))
                               for spec in GROUP_GRAPHS}
        self.expected_trees = {spec: gen.family_tree_count(*spec)
                               for spec in GROUP_GRAPHS + TREE_GRAPHS}
        # a fresh relabelling (and sink) per round, for a few distinct rounds
        self.rounds = []
        for _ in range(math.ceil(seconds / 4) + 1):
            ops = []
            for group_spec, trees_spec in zip(GROUP_GRAPHS, TREE_GRAPHS):
                for kind, spec in (("group", group_spec), ("trees", trees_spec)):
                    size, edges = base[spec]
                    g = lib.digraph.DiGraph(size, gen.relabel(rng, size, edges))
                    ops.append((kind, spec, g, rng.randrange(size)))
            self.rounds.append(ops)
        size, edges = gen.family_edges("db", 2, 3)
        lib.arborescence.count_trees(lib.digraph.DiGraph(size, gen.relabel(rng, size, edges)))

    def op(self, i: int):
        kind, spec, g, sink = self.rounds[i // self.round % len(self.rounds)][i % self.round]
        if kind == "group":
            group, elapsed = timed(self.lib.crit_group.sandpile_group, g, sink)
            ok = (group.free_rank == 0
                  and tuple(group.invariant_factors) == self.expected_group[spec]
                  and math.prod(group.invariant_factors) * g.n == self.expected_trees[spec])
        else:
            count, elapsed = timed(self.lib.arborescence.count_trees, g)
            ok = count == self.expected_trees[spec]
        return {kind: elapsed}, ok


WORKLOADS = {"codec": Codec, "corpus": Corpus, "matrix": Matrix}


# --- measurement ----------------------------------------------------------------


def probe() -> float:
    """Time a fixed pure-Python computation, to gauge the host's speed now.

    It mixes the two kinds of work the library does: dict and list traffic,
    and big-integer row elimination.
    """
    start = time.perf_counter()
    d: dict[int, int] = {}
    lst = []
    for i in range(20000):
        d[i & 1023] = d.get(i & 1023, 0) + i
        lst.append((i * 7) % 13)
        if len(lst) > 64:
            lst.clear()
    rows = [[(i * 31 + j * 17) % 97 + (1 << 40) for j in range(40)] for i in range(40)]
    for k in range(39):
        pk = rows[k]
        for r in rows[k + 1:]:
            q = r[k] // (pk[k] or 1)
            for j in range(40):
                r[j] -= q * pk[j]
    return time.perf_counter() - start


def set_up(workload, seed: int, seconds: float, trace: bool):
    """SETUP_REPS cold set-ups (fresh import, generation, warm-up); keeps the last.

    Returns the state, the tracer, and the median set-up time raw and
    scaled by the probes taken before and after each set-up.
    """
    raw, scaled = [], []
    before = probe()
    for rep in range(SETUP_REPS):
        start = time.perf_counter()
        lib = load_library()
        tr = None
        if trace and rep == SETUP_REPS - 1:
            tr = tracer.Tracer()
            tr.install(lib)
        state = workload(lib, random.Random(seed), seconds)
        raw.append(time.perf_counter() - start)
        after = probe()
        scaled.append(raw[-1] * PROBE_QUIET_S * 2 / (before + after))
        before = after
    return state, tr, statistics.median(raw), statistics.median(scaled)


def measure(state, seconds: float, ops: int | None, tr) -> dict:
    """Run ops until the deadline (or exactly `ops` ops when given).

    A probe runs before the first op, between ops once PROBE_EVERY_S has
    passed since the last one, and after the last op.  Each library-call
    time is also kept scaled by PROBE_QUIET_S over the mean of the two
    probes around it.
    """
    raw = {kind: [] for kind in state.kinds}
    timed_ops = []          # (kind, seconds, index of the probe before it)
    probes = [probe()]
    last_probe = time.perf_counter()
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while True:
        if ops is not None:
            if attempted >= ops:
                break
        elif (attempted % state.round == 0 and attempted >= state.min_ops
              and time.perf_counter() >= deadline):
            break
        if time.perf_counter() - last_probe >= PROBE_EVERY_S:
            probes.append(probe())
            last_probe = time.perf_counter()
        if tr is not None:
            tr.op = attempted
        start = time.perf_counter()
        try:
            times, ok = state.op(attempted)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            print(f"op {attempted}: {type(exc).__name__}: {exc}", file=sys.stderr)
            times, ok = {"failed": time.perf_counter() - start}, False
        attempted += 1
        for kind, t in times.items():
            timed_ops.append((kind, t, len(probes) - 1))
        if not ok:
            failed += 1
            print(f"op {attempted - 1}: output check failed", file=sys.stderr)
    probes.append(probe())
    scaled = {kind: [] for kind in state.kinds}
    busy_raw = busy_scaled = 0.0
    for kind, t, k in timed_ops:
        t_scaled = t * PROBE_QUIET_S * 2 / (probes[k] + probes[k + 1])
        busy_raw += t
        busy_scaled += t_scaled
        if kind in raw:
            raw[kind].append(t)
            scaled[kind].append(t_scaled)
    return {"raw": raw, "scaled": scaled, "attempted": attempted, "failed": failed,
            "ops_per_s_raw": attempted / busy_raw, "ops_per_s": attempted / busy_scaled,
            "probe_p50_ms": statistics.median(probes) * 1e3}


def p50_ms(values: list[float]) -> float:
    return statistics.median(values) * 1e3


def p90_ms(values: list[float]) -> float:
    if len(values) < 100:
        raise ValueError("p90 needs at least ten samples beyond it")
    return statistics.quantiles(values, n=10, method="inclusive")[8] * 1e3


def latencies(name: str, samples: dict) -> dict[str, float]:
    """The workload's two latency metrics, under their own names."""
    if name == "codec":
        return {"encode_p50_ms": p50_ms(samples["encode"]),
                "decode_p50_ms": p50_ms(samples["decode"])}
    if name == "corpus":
        return {"graph_p50_ms": p50_ms(samples["graph"]),
                "graph_p90_ms": p90_ms(samples["graph"])}
    return {"group_p50_ms": p50_ms(samples["group"]),
            "trees_p50_ms": p50_ms(samples["trees"])}


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "linetrees").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    workload = WORKLOADS[args.workload]
    try:
        state, tr, setup_raw, setup_s = set_up(workload, args.seed, args.seconds,
                                                bool(args.trace))
    except ImportError as exc:
        print(f"error: cannot import linetrees from {SRC}: {exc}", file=sys.stderr)
        return 2

    ops = None
    if tr is not None:
        ops = max(state.min_ops, math.ceil(args.seconds * workload.trace_rate))
        ops = math.ceil(ops / state.round) * state.round
    run = measure(state, args.seconds, ops, tr)
    named = latencies(args.workload, run["scaled"])
    if tr is None:
        lat_a, lat_b = named.values()
        metrics = {"setup_s": (setup_s, "s"), "ops_per_s": (run["ops_per_s"], "1/s"),
                   "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
                   "lat_a_ms": (lat_a, "ms"), "lat_b_ms": (lat_b, "ms")}
    else:
        units = tracer.metric_units()
        values = tr.metrics()
        values["trace.ops_per_s"] = run["ops_per_s"]
        metrics = {k: (values[k], units[k]) for k in units}
        spans = tr.write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.csv.gz")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "implementation": platform.python_implementation(), "commit": commit(),
        "source_sha256": source_digest(), "nproc": os.cpu_count(),
        "ops_attempted": run["attempted"], "ops_failed": run["failed"],
        "samples": {k: len(v) for k, v in run["raw"].items()},
        "probe_p50_ms": run["probe_p50_ms"], "scaled": {"setup_s": setup_s, **named,
                                                        "ops_per_s": run["ops_per_s"]},
        "raw": {"setup_s": setup_raw, **latencies(args.workload, run["raw"]),
                "ops_per_s": run["ops_per_s_raw"]},
    }
    if tr is not None:
        record.update(spans_written=spans, spans_dropped=tr.dropped)
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": run["failed"] == 0, "attempted": run["attempted"], "failed": run["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
