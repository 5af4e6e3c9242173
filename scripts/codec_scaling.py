#!/usr/bin/env python3
"""Time the de Bruijn codec round trip against the degree.

For each degree in DEGREES, a child process decodes one random code as a
warm-up, then times decode and encode of REPS fresh random codes, checks
each round trip and reports the median time each way; peak RSS covers all
of them.  Each child gets TIMEOUT_S seconds; the harness and --src are in
scaling.py.

Usage:
    python scripts/codec_scaling.py [--src DIR ...]
"""

import scaling

DEGREES = (10, 12, 14, 16, 18, 20)
TIMEOUT_S = 300.0
SEED = 1
# one round trip at degree 10-14 takes milliseconds, within the noise of a
# shared host, so each row is a median
REPS = 3
CHILD = """
import json, random, resource, statistics, sys, time
from linetrees import db_codec
degree, seed, reps = int(sys.argv[1]), int(sys.argv[2]), int(sys.argv[3])
rng = random.Random(seed)
def code():
    return "".join(rng.choice("01") for _ in range(2 ** (degree - 1)))
db_codec.decode(code(), degree)
decode_s, encode_s = [], []
for _ in range(reps):
    c = code()
    start = time.perf_counter()
    bits = db_codec.decode(c, degree)
    mid = time.perf_counter()
    back = db_codec.encode(bits, degree)
    end = time.perf_counter()
    if back != c:
        sys.exit("round trip failed")
    decode_s.append(mid - start)
    encode_s.append(end - mid)
print(json.dumps({"decode_s": statistics.median(decode_s),
                  "encode_s": statistics.median(encode_s),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}))
"""


def main():
    scaling.main(CHILD, [(degree, SEED, REPS) for degree in DEGREES], TIMEOUT_S,
                 ["degree"], lambda case: [str(case[0])],
                 ["encode s", "decode s", "peak MB"],
                 lambda r: [f"{r['encode_s']:.3f}", f"{r['decode_s']:.3f}",
                            f"{r['peak_rss_mb']:.0f}"])


if __name__ == "__main__":
    main()
