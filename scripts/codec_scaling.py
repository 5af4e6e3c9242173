#!/usr/bin/env python3
"""Time the de Bruijn codec round trip against the degree.

For each degree in DEGREES, a child process decodes one random code as a
warm-up, then times decode and encode of a fresh random code and checks
the round trip; peak RSS covers both.  Each child gets TIMEOUT_S seconds; the
harness and --src are in scaling.py.

Usage:
    python scripts/codec_scaling.py [--src DIR ...]
"""

import scaling

DEGREES = (10, 12, 14, 16, 18, 20)
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


def main():
    scaling.main(CHILD, [(degree, SEED) for degree in DEGREES], TIMEOUT_S,
                 ["degree"], lambda case: [str(case[0])],
                 ["encode s", "decode s", "peak MB"],
                 lambda r: [f"{r['encode_s']:.3f}", f"{r['decode_s']:.3f}",
                            f"{r['peak_rss_mb']:.0f}"])


if __name__ == "__main__":
    main()
