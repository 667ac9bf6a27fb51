"""Time what a fresh brw process does before any group is built.

    python perfbench/setup_probe.py SPEC.json [SPEC.json ...]

Imports brw.cli, then for every spec runs load_spec, algebra_from_spec (which
certifies the identity and associativity) and the split-basic decomposition.
Prints {"setup_s": seconds} as JSON.
"""

import json
import sys
import time


def main(paths):
    start = time.perf_counter()
    from brw.cli import load_spec
    from brw.algebra import algebra_from_spec, cached_decomposition
    for path in paths:
        _, spec = load_spec(path)
        cached_decomposition(algebra_from_spec(spec))
    print(json.dumps({"setup_s": time.perf_counter() - start}))


if __name__ == "__main__":
    main(sys.argv[1:])
