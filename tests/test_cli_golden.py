"""Golden CLI outputs: stdout, stderr and exit code of every case in
``cli_golden.json`` must match exactly.

The recorded outputs pin the CLI's behaviour across refactors.  To record
them afresh (only when a change is meant to alter the CLI's output):

    PYTHONPATH=src python tests/test_cli_golden.py

``verify-all`` is left out because its lines carry wall-clock times.
"""

from __future__ import annotations

import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from linetrees.cli import main

GOLDEN = Path(__file__).with_name("cli_golden.json")

# Graph files named in argv; each name is replaced by the file's path.
FILES = {
    # parallel edges a->b and a self-loop at b; every indegree positive
    "multi.txt": "a b x\na b y\nb a z\nb b w\n",
    # vertex 0 has indegree 0, so it has no tree arrays
    "source.txt": "0 1\n0 1\n1 1\n",
    "two_cycle.txt": "a b\nb a\n",
}

DB22 = ["--family", "db", "-m", "2", "-n", "2"]
KAUTZ21 = ["--family", "kautz", "-m", "2", "-n", "1"]
MULTI = ["--input", "multi.txt"]
SOURCE = ["--input", "source.txt"]

MULTI_ARRAY_B = {"root": "b", "lists": {"a": ["x"], "b": ["z", "w", "OMEGA"]}}
MULTI_ARRAY_A = {"root": "a", "lists": {"a": ["OMEGA"], "b": ["w", "z", "z"]}}
DB11_ARRAY = {"root": "0", "lists": {"0": ["00", "OMEGA"], "1": ["11", "10"]}}


def _json(data) -> str:
    return json.dumps(data)


# (id, argv, stdin)
CASES = [
    # gen and linegraph, all three formats
    ("gen-db-2-2-edgelist", ["gen", *DB22], ""),
    ("gen-db-2-2-json", ["gen", *DB22, "--format", "json"], ""),
    ("gen-db-2-2-dot", ["gen", *DB22, "--format", "dot"], ""),
    ("gen-kautz-2-2-edgelist", ["gen", "--family", "kautz", "-m", "2", "-n", "2"], ""),
    ("gen-db-0-1-error", ["gen", "--family", "db", "-m", "0", "-n", "1"], ""),
    ("linegraph-multi-edgelist", ["linegraph", *MULTI], ""),
    ("linegraph-multi-json", ["linegraph", *MULTI, "--format", "json"], ""),
    ("linegraph-multi-dot", ["linegraph", *MULTI, "--format", "dot"], ""),
    ("linegraph-kautz-2-1-json", ["linegraph", *KAUTZ21, "--format", "json"], ""),
    ("linegraph-stdin", ["linegraph", "--input", "-"], "p q\nq p\nq q\n"),
    ("linegraph-no-source", ["linegraph"], ""),
    ("linegraph-family-without-n", ["linegraph", "--family", "db", "-m", "2"], ""),
    ("linegraph-garbage", ["linegraph", "--input", "-"], "a\n"),
    # trees
    ("trees-count-db", ["trees", "count", *DB22], ""),
    ("trees-count-db-json", ["trees", "count", *DB22, "--json"], ""),
    ("trees-count-multi", ["trees", "count", *MULTI], ""),
    ("trees-count-multi-json", ["trees", "count", *MULTI, "--json"], ""),
    ("trees-enumerate-kautz", ["trees", "enumerate", *KAUTZ21], ""),
    ("trees-enumerate-multi-json", ["trees", "enumerate", *MULTI, "--json"], ""),
    ("trees-enumerate-bound", ["trees", "enumerate", *DB22, "--bound", "3"], ""),
    ("trees-identity-expand", ["trees", "identity-check", *DB22], ""),
    ("trees-identity-expand-json", ["trees", "identity-check", *MULTI, "--json"], ""),
    ("trees-identity-evaluate", ["trees", "identity-check", *MULTI,
                                 "--method", "evaluate"], ""),
    ("trees-identity-evaluate-json", ["trees", "identity-check", *KAUTZ21,
                                      "--method", "evaluate", "--json"], ""),
    ("trees-identity-source", ["trees", "identity-check", *SOURCE], ""),
    ("trees-identity-bound", ["trees", "identity-check", *DB22, "--bound", "2"], ""),
    ("trees-knuth", ["trees", "knuth-check", *KAUTZ21], ""),
    ("trees-knuth-json", ["trees", "knuth-check", *MULTI, "--json"], ""),
    ("trees-knuth-source", ["trees", "knuth-check", *SOURCE, "--json"], ""),
    # bijection: valid, invalid and malformed input
    ("bijection-sigma-multi-b", ["bijection", "sigma", *MULTI], _json(MULTI_ARRAY_B)),
    ("bijection-sigma-multi-a", ["bijection", "sigma", *MULTI], _json(MULTI_ARRAY_A)),
    ("bijection-roundtrip-multi", ["bijection", "roundtrip", *MULTI], _json(MULTI_ARRAY_B)),
    ("bijection-sigma-db", ["bijection", "sigma", "--family", "db", "-m", "2", "-n", "1"],
     _json(DB11_ARRAY)),
    ("bijection-roundtrip-db", ["bijection", "roundtrip", "--family", "db", "-m", "2",
                                "-n", "1"], _json(DB11_ARRAY)),
    ("bijection-pi-two-cycle", ["bijection", "pi", "--input", "two_cycle.txt"],
     _json({"root": "1", "edges": [["0", "1"]]})),
    ("bijection-pi-multi", ["bijection", "pi", *MULTI],
     _json({"root": "w", "edges": [["x", "z"], ["y", "w"], ["z", "y"]]})),
    ("bijection-pi-not-line-edge", ["bijection", "pi", *MULTI],
     _json({"root": "w", "edges": [["x", "y"]]})),
    ("bijection-pi-not-tree", ["bijection", "pi", *MULTI],
     _json({"root": "w", "edges": [["x", "z"]]})),
    ("bijection-sigma-wrong-length", ["bijection", "sigma", *MULTI],
     _json({"root": "b", "lists": {"a": ["x"], "b": ["z", "OMEGA"]}})),
    ("bijection-sigma-two-omegas", ["bijection", "sigma", *MULTI],
     _json({"root": "b", "lists": {"a": ["OMEGA"], "b": ["z", "w", "OMEGA"]}})),
    ("bijection-sigma-foreign-edge", ["bijection", "sigma", *MULTI],
     _json({"root": "b", "lists": {"a": ["z"], "b": ["z", "w", "OMEGA"]}})),
    ("bijection-sigma-unknown-edge", ["bijection", "sigma", *MULTI],
     _json({"root": "b", "lists": {"a": ["q"], "b": ["z", "w", "OMEGA"]}})),
    ("bijection-sigma-unknown-vertex", ["bijection", "sigma", *MULTI],
     _json({"root": "c", "lists": {}})),
    ("bijection-sigma-no-root", ["bijection", "sigma", *MULTI], _json({"lists": {}})),
    ("bijection-sigma-list", ["bijection", "sigma", *MULTI], _json([["a", "OMEGA"]])),
    ("bijection-pi-short-pair", ["bijection", "pi", *MULTI],
     _json({"root": "w", "edges": [["x"]]})),
    ("bijection-roundtrip-not-json", ["bijection", "roundtrip", *MULTI], "{root"),
    ("bijection-sigma-source", ["bijection", "sigma", *SOURCE],
     _json({"root": "1", "lists": {"0": [], "1": ["0", "1", "OMEGA"]}})),
    # codec
    ("codec-encode-3", ["codec", "encode", "--degree", "3"], "00010111\n"),
    ("codec-encode-3-json", ["codec", "encode", "--degree", "3", "--json"], "01110100\n"),
    ("codec-encode-4", ["codec", "encode", "--degree", "4"], "0000100110101111\n"),
    ("codec-encode-5", ["codec", "encode", "--degree", "5"],
     "00000100011001010011101011011111\n"),
    ("codec-encode-2", ["codec", "encode", "--degree", "2"], "0110\n"),
    ("codec-encode-degree-0", ["codec", "encode", "--degree", "0"], "01\n"),
    ("codec-encode-degree-1-01", ["codec", "encode", "--degree", "1"], "01\n"),
    ("codec-encode-degree-1-0", ["codec", "encode", "--degree", "1"], "0\n"),
    ("codec-encode-degree-2-0101", ["codec", "encode", "--degree", "2"], "0101\n"),
    ("codec-encode-not-binary", ["codec", "encode", "--degree", "2"], "0120\n"),
    ("codec-encode-wrong-length", ["codec", "encode", "--degree", "3"], "0011\n"),
    ("codec-encode-non-sequence", ["codec", "encode", "--degree", "3"], "01010101\n"),
    ("codec-decode-3", ["codec", "decode", "--degree", "3"], "0011\n"),
    ("codec-decode-4-json", ["codec", "decode", "--degree", "4", "--json"], "10110010\n"),
    ("codec-decode-5", ["codec", "decode", "--degree", "5"], "1001011001101001\n"),
    ("codec-decode-degree-1", ["codec", "decode", "--degree", "1"], "0\n"),
    ("codec-decode-wrong-length", ["codec", "decode", "--degree", "3"], "011\n"),
    ("codec-decode-not-binary", ["codec", "decode", "--degree", "3"], "01a1\n"),
    ("codec-enumerate-3", ["codec", "enumerate", "--degree", "3"], ""),
    ("codec-enumerate-2-json", ["codec", "enumerate", "--degree", "2", "--json"], ""),
    ("codec-enumerate-5", ["codec", "enumerate", "--degree", "5"], ""),
    ("codec-enumerate-0", ["codec", "enumerate", "--degree", "0"], ""),
    # group
    ("group-compute-db", ["group", "compute", "--family", "db", "-m", "2", "-n", "3"], ""),
    ("group-compute-kautz-json", ["group", "compute", "--family", "kautz", "-m", "2",
                                  "-n", "2", "--json"], ""),
    ("group-verify-db", ["group", "verify", "--family", "db", "-m", "3", "-n", "2"], ""),
    ("group-verify-kautz-json", ["group", "verify", "--family", "kautz", "-m", "2",
                                 "-n", "2", "--json"], ""),
    ("group-verify-n1-json", ["group", "verify", "--family", "db", "-m", "2", "-n", "1",
                              "--json"], ""),
    ("group-order-db", ["group", "order", "--family", "db", "-m", "2", "-n", "3"], ""),
    ("group-order-kautz-json", ["group", "order", "--family", "kautz", "-m", "3", "-n", "2",
                                "--json"], ""),
    ("group-formula-db", ["group", "formula", "--family", "db", "-m", "2", "-n", "4"], ""),
    ("group-formula-kautz-json", ["group", "formula", "--family", "kautz", "-m", "2",
                                  "-n", "2", "--json"], ""),
    ("group-compute-bad-m", ["group", "compute", "--family", "db", "-m", "0", "-n", "2"], ""),
]


def run_case(argv: list[str], stdin: str, paths: dict[str, str]) -> dict:
    """Run the CLI in-process and capture what it writes and returns."""
    argv = [paths.get(arg, arg) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(stdin), out, err
    try:
        code = main(argv)
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
    return {"stdout": out.getvalue(), "stderr": err.getvalue(), "code": code}


def _write_files(directory: Path, files: dict[str, str]) -> dict[str, str]:
    paths = {}
    for name, text in files.items():
        (directory / name).write_text(text)
        paths[name] = str(directory / name)
    return paths


@pytest.fixture(scope="module")
def golden():
    return {case["id"]: case for case in json.loads(GOLDEN.read_text())}


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    return _write_files(tmp_path_factory.mktemp("golden"), FILES)


@pytest.mark.parametrize("case_id,argv,stdin", CASES, ids=[case[0] for case in CASES])
def test_cli_golden(case_id, argv, stdin, golden, paths):
    expected = golden[case_id]
    assert (expected["argv"], expected["stdin"]) == (argv, stdin)
    result = run_case(argv, stdin, paths)
    assert result == {key: expected[key] for key in ("stdout", "stderr", "code")}


def record() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        paths = _write_files(Path(tmp), FILES)
        cases = [{"id": case_id, "argv": argv, "stdin": stdin,
                  **run_case(argv, stdin, paths)}
                 for case_id, argv, stdin in CASES]
    GOLDEN.write_text(json.dumps(cases, indent=1) + "\n")
    print(f"wrote {len(cases)} cases to {GOLDEN}")


if __name__ == "__main__":
    record()
