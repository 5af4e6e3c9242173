#!/usr/bin/env python3
"""Time the de Bruijn codec round trip against the degree.

For each degree in DEGREES, a child process decodes one random code to
build the level contexts, then times decode and encode of a fresh random
code and checks the round trip.  Each child gets TIMEOUT_S seconds, so a
slow source tree shows as "timeout" instead of stalling the table.  Give
--src more than once to compare source trees (e.g. a parent checkout's
src/ and this one) in one run; columns follow the order given.

Usage:
    python scripts/codec_scaling.py [--src DIR ...]
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

DEGREES = (10, 12, 14, 16, 18)
TIMEOUT_S = 300.0
SEED = 1
CHILD = """
import json, random, resource, sys, time
from linetrees import db_codec
degree, seed = int(sys.argv[1]), int(sys.argv[2])
rng = random.Random(seed)
def code():
    return "".join(rng.choice("01") for _ in range(2 ** (degree - 1)))
db_codec.decode(code(), degree)
c = code()
start = time.perf_counter()
bits = db_codec.decode(c, degree)
mid = time.perf_counter()
back = db_codec.encode(bits, degree)
end = time.perf_counter()
if back != c:
    sys.exit("round trip failed")
print(json.dumps({"decode_s": mid - start, "encode_s": end - mid,
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}))
"""


def measure(src: Path, degree: int) -> dict | None:
    env = {**os.environ, "PYTHONPATH": str(src)}
    try:
        proc = subprocess.run([sys.executable, "-c", CHILD, str(degree), str(SEED)],
                              env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None
    if proc.returncode != 0:
        raise RuntimeError(f"degree {degree} with {src}: {proc.stderr.strip()}")
    return json.loads(proc.stdout)


def main():
    root = Path(__file__).resolve().parent.parent
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", type=Path, action="append",
                        help="a src/ directory holding linetrees (default: this one's)")
    args = parser.parse_args()
    sources = args.src or [root / "src"]

    header = ["degree"]
    for i in range(len(sources)):
        header += [f"encode s [{i}]", f"decode s [{i}]", f"peak MB [{i}]"]
    for i, src in enumerate(sources):
        print(f"[{i}] {src}")
    print("| " + " | ".join(header) + " |")
    print("|" + " --- |" * len(header))
    for degree in DEGREES:
        row = [str(degree)]
        for src in sources:
            r = measure(src, degree)
            if r is None:
                row += [f"timeout (> {TIMEOUT_S:g} s)", "-", "-"]
            else:
                row += [f"{r['encode_s']:.3f}", f"{r['decode_s']:.3f}", f"{r['peak_rss_mb']:.0f}"]
        print("| " + " | ".join(row) + " |", flush=True)


if __name__ == "__main__":
    main()
