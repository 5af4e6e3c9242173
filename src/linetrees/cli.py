"""Command-line front door.

Batch, non-interactive: graphs come from edge-list files or the family
generators, bit strings ride stdin/stdout, and every subcommand has a
``--json`` machine-readable mode.  Exit codes: 0 success, 1 domain error
(invalid sequence, malformed array, unsupported graph), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import db_codec, verify
from .arborescence import (SpanningTree, enumerate_trees, knuth_check, rooted_tree_counts,
                           verify_identity)
from .crit_group import (check_divbym, critical_group, db_formula, group_order_db,
                         group_order_kautz, kautz_formula)
from .digraph import (DiGraph, debruijn, format_edge_list, kautz, line_graph,
                      parse_edge_list, to_dot, to_json_dict)
from .errors import GraphError, InvalidTreeArrayError, InvalidTreeError
from .line_bijection import OMEGA, LineContext, TreeArray

OK, DOMAIN_ERROR, USAGE_ERROR = 0, 1, 2


def _add_graph_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", metavar="FILE",
                        help="edge-list file ('-' for stdin): SRC DST [LABEL] per line")
    parser.add_argument("--family", choices=("db", "kautz"),
                        help="generate the graph instead of reading it")
    parser.add_argument("-m", type=int, help="family alphabet parameter")
    parser.add_argument("-n", type=int, help="family string length")


def _load_graph(args) -> DiGraph:
    if args.family:
        if args.m is None or args.n is None:
            raise SystemExit2("--family needs -m and -n")
        make = debruijn if args.family == "db" else kautz
        return make(args.m, args.n)
    if args.input is None:
        raise SystemExit2("provide --input FILE or --family db|kautz -m M -n N")
    try:
        text = sys.stdin.read() if args.input == "-" else Path(args.input).read_text()
    except OSError as exc:
        raise SystemExit2(f"cannot read {args.input}: {exc.strerror}") from None
    return parse_edge_list(text)


class SystemExit2(Exception):
    """Usage error discovered after argparse."""


def _emit_graph(g: DiGraph, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(to_json_dict(g)))
    elif fmt == "dot":
        sys.stdout.write(to_dot(g))
    else:
        sys.stdout.write(format_edge_list(g))


def _label_index(label, count: int) -> dict[str, int]:
    # label -> index: vertex labels are distinct, and so are the edge labels
    # of a graph that _check_edge_labels has passed
    return {label(i): i for i in range(count)}


def _check_edge_labels(g: DiGraph) -> None:
    # the bijection's JSON names each edge by its label, so a label that
    # repeats, or that reads as the terminator, would name the wrong edge
    seen = set()
    for e in range(g.m):
        name = g.edge_label(e)
        if name == "OMEGA" or name in seen:
            why = "reads as the terminator" if name == "OMEGA" else "repeats"
            raise GraphError(f"edge label {name!r} {why}: the bijection's JSON needs "
                             "distinct edge labels other than OMEGA")
        seen.add(name)


def _lookup(index: dict[str, int], kind: str, name, error: type[ValueError]) -> int:
    name = str(name)
    if name not in index:
        raise error(f"unknown {kind} {name!r}")
    return index[name]


def _array_to_json(g: DiGraph, a: TreeArray) -> dict:
    lists = {}
    for v, entries in enumerate(a.lists):
        lists[g.vertex_label(v)] = ["OMEGA" if x is OMEGA else g.edge_label(x)
                                    for x in entries]
    return {"root": g.vertex_label(a.root), "lists": lists}


def _array_from_json(g: DiGraph, data) -> TreeArray:
    err = InvalidTreeArrayError
    shape = 'tree array JSON must be {"root": VERTEX, "lists": {VERTEX: [EDGE or "OMEGA", ...]}}'
    if not (isinstance(data, dict) and "root" in data):
        raise err(shape)
    vertices, edges = _label_index(g.vertex_label, g.n), _label_index(g.edge_label, g.m)
    root = _lookup(vertices, "vertex", data["root"], err)
    if not (isinstance(data.get("lists"), dict)
            and all(isinstance(entries, list) for entries in data["lists"].values())):
        raise err(shape)
    lists: list[tuple] = [()] * g.n
    for name, entries in data["lists"].items():
        v = _lookup(vertices, "vertex", name, err)
        lists[v] = tuple(OMEGA if x == "OMEGA" else _lookup(edges, "edge", x, err)
                         for x in entries)
    return TreeArray(root, tuple(lists))


def _line_tree_to_json(g: DiGraph, ctx: LineContext, t: SpanningTree) -> dict:
    edges = [[g.edge_label(e), g.edge_label(f)]
             for e, f in enumerate(ctx.successors(t)) if f is not None]
    return {"root": g.edge_label(t.root), "edges": edges}


def _line_tree_from_json(g: DiGraph, ctx: LineContext, data) -> SpanningTree:
    err = InvalidTreeError
    shape = 'line tree JSON must be {"root": EDGE, "edges": [[EDGE, EDGE], ...]}'
    if not (isinstance(data, dict) and "root" in data):
        raise err(shape)
    edges = _label_index(g.edge_label, g.m)
    root = _lookup(edges, "edge", data["root"], err)
    if not (isinstance(data.get("edges"), list)
            and all(isinstance(pair, list) and len(pair) == 2 for pair in data["edges"])):
        raise err(shape)
    succ: list[int | None] = [None] * g.m
    for e_name, f_name in data["edges"]:
        e, f = _lookup(edges, "edge", e_name, err), _lookup(edges, "edge", f_name, err)
        if g.edges[e][1] != g.edges[f][0]:
            raise err(f"({e_name},{f_name}) is not an edge of the line graph")
        if succ[e] is not None:
            raise err(f"line vertex {e_name} has more than one out-edge")
        succ[e] = f
    return ctx.line_tree(root, succ)


# --- subcommands -------------------------------------------------------------

def _cmd_gen(args) -> int:
    make = debruijn if args.family == "db" else kautz
    _emit_graph(make(args.m, args.n), args.format)
    return OK


def _cmd_linegraph(args) -> int:
    g = _load_graph(args)
    _emit_graph(line_graph(g), args.format)
    return OK


def _cmd_trees(args) -> int:
    g = _load_graph(args)
    if args.action == "count":
        by_root = {g.vertex_label(r): c for r, c in enumerate(rooted_tree_counts(g))}
        total = sum(by_root.values())
        if args.json:
            print(json.dumps({"total": str(total),
                              "by_root": {k: str(v) for k, v in by_root.items()}}))
        else:
            print(f"spanning trees: {total}")
            for name, cnt in by_root.items():
                print(f"  root {name}: {cnt}")
    elif args.action == "enumerate":
        trees = enumerate_trees(g, bound=args.bound)
        if args.json:
            out = [{"root": g.vertex_label(t.root),
                    "edges": [g.edge_label(e) for e in t.out_edge if e is not None]}
                   for t in trees]
            print(json.dumps({"trees": out}))
        else:
            for t in trees:
                edges = ",".join(g.edge_label(e) for e in t.out_edge if e is not None)
                print(f"root {g.vertex_label(t.root)}: {edges}")
    elif args.action == "identity-check":
        report = verify_identity(g, method=args.method, bound=args.bound)
        if args.json:
            print(json.dumps(report.to_json_dict()))
        else:
            print(f"identity holds: {report.holds} "
                  f"(lhs terms: {report.lhs_terms}, rhs terms: {report.rhs_terms})")
        return OK if report.holds else DOMAIN_ERROR
    else:  # knuth-check
        report = knuth_check(g)
        if args.json:
            print(json.dumps(report.to_json_dict()))
        else:
            print(f"kappa(LG) = {report.kappa_line}, "
                  f"kappa(G) * product = {report.kappa_base} * {report.degree_product}, "
                  f"holds: {report.holds}")
        return OK if report.holds else DOMAIN_ERROR
    return OK


def _cmd_bijection(args) -> int:
    g = _load_graph(args)
    _check_edge_labels(g)
    ctx = LineContext(g)
    data = json.load(sys.stdin)
    if args.action == "sigma":
        tree = ctx.sigma(_array_from_json(g, data))
        print(json.dumps(_line_tree_to_json(g, ctx, tree)))
    elif args.action == "pi":
        array = ctx.pi(_line_tree_from_json(g, ctx, data))
        print(json.dumps(_array_to_json(g, array)))
    else:  # roundtrip
        array = _array_from_json(g, data)
        tree = ctx.sigma(array)
        back = ctx.pi(tree)
        print(json.dumps({"tree": _line_tree_to_json(g, ctx, tree),
                          "roundtrip_ok": back == array}))
        return OK if back == array else DOMAIN_ERROR
    return OK


def _cmd_codec(args) -> int:
    if args.action == "enumerate":
        sequences = db_codec.enumerate_db_sequences(args.degree)
        if args.json:
            print(json.dumps({"degree": args.degree, "count": len(sequences),
                              "sequences": sequences}))
        else:
            for bits in sequences:
                print(bits)
        return OK
    data = sys.stdin.read().strip()
    if args.action == "encode":
        result = db_codec.encode(data, args.degree)
    else:
        result = db_codec.decode(data, args.degree)
    if args.json:
        print(json.dumps({"degree": args.degree, "input": data, "output": result,
                          "valid": True}))
    else:
        print(result)
    return OK


def _cmd_group(args) -> int:
    make = debruijn if args.family == "db" else kautz
    formula = db_formula if args.family == "db" else kautz_formula
    order_formula = group_order_db if args.family == "db" else group_order_kautz
    m, n = args.m, args.n
    if args.action == "order":
        value = order_formula(m, n)
        if args.json:
            print(json.dumps({"family": args.family, "m": m, "n": n, "order": str(value)}))
        else:
            print(value)
        return OK
    if args.action == "formula":
        f = formula(m, n)
        normalized = f.normalize()
        if args.json:
            print(json.dumps({"family": args.family, "m": m, "n": n,
                              "summands": [[mod, mult] for mod, mult in f.summands],
                              "invariant_factors": list(normalized.invariant_factors),
                              "order": str(f.order())}))
        else:
            print(f"{f}  =  {normalized}")
        return OK
    # an -m or -n below 1 gets the graph's own error; past that, the closed
    # form refuses an order past its cap before the graph and its SNF are built
    if m < 1 or n < 1:
        make(m, n)  # raises GraphError
    f = formula(m, n)
    g = make(m, n)
    group = critical_group(g)
    matches = group == f.normalize()
    if args.action == "verify":
        divis = check_divbym(g).holds if n >= 2 else None
        ok = matches and group.order == order_formula(m, n) and divis is not False
        if args.json:
            print(json.dumps({"family": args.family, "m": m, "n": n,
                              "invariant_factors": list(group.invariant_factors),
                              "order": str(group.order), "matches_formula": matches,
                              "divisibility_split": divis, "ok": ok}))
        else:
            print(f"computed {group}; matches formula: {matches}; "
                  f"order ok: {group.order == order_formula(m, n)}; "
                  f"divisibility split: {divis}")
        return OK if ok else DOMAIN_ERROR
    # compute
    if args.json:
        print(json.dumps({"family": args.family, "m": m, "n": n,
                          "invariant_factors": list(group.invariant_factors),
                          "order": str(group.order), "matches_formula": matches}))
    else:
        print(f"{group} (order {group.order})")
    return OK


def _cmd_verify_all(args) -> int:
    results = verify.run(args.criteria or None)
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    return OK if not failed else DOMAIN_ERROR


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="linetrees",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a de Bruijn or Kautz graph")
    p.add_argument("--family", choices=("db", "kautz"), required=True)
    p.add_argument("-m", type=int, required=True)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--format", choices=("edgelist", "json", "dot"), default="edgelist")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("linegraph", help="directed line graph of a graph")
    _add_graph_options(p)
    p.add_argument("--format", choices=("edgelist", "json", "dot"), default="edgelist")
    p.set_defaults(func=_cmd_linegraph)

    p = sub.add_parser("trees", help="spanning-tree counts and identity checks")
    p.add_argument("action", choices=("count", "enumerate", "identity-check", "knuth-check"))
    _add_graph_options(p)
    p.add_argument("--method", choices=("expand", "evaluate"), default="expand",
                   help="identity-check: exact expansion or randomized evaluation")
    p.add_argument("--bound", type=int, default=10 ** 6,
                   help="cap on brute-force enumeration candidates")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_trees)

    p = sub.add_parser("bijection", help="tree-array maps (JSON on stdin)")
    p.add_argument("action", choices=("sigma", "pi", "roundtrip"))
    _add_graph_options(p)
    p.set_defaults(func=_cmd_bijection)

    p = sub.add_parser("codec", help="de Bruijn sequence <-> bit string codec")
    p.add_argument("action", choices=("encode", "decode", "enumerate"))
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_codec)

    p = sub.add_parser("group", help="critical groups of the two families")
    p.add_argument("action", choices=("compute", "formula", "order", "verify"))
    p.add_argument("--family", choices=("db", "kautz"), required=True)
    p.add_argument("-m", type=int, required=True)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_group)

    p = sub.add_parser("verify-all", help="run the full verification suite")
    p.add_argument("criteria", type=int, nargs="*",
                   help="criterion numbers to run (default: all)")
    p.set_defaults(func=_cmd_verify_all)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SystemExit2 as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DOMAIN_ERROR


if __name__ == "__main__":
    sys.exit(main())
