"""Time one set-up from a fresh interpreter: import latfree, then read the
workload's input files through latfree's own readers.

Usage: python3 setup_probe.py SRC_DIR WORKLOAD INPUT_FILE...
Prints one JSON object with import_s, read_s and setup_s.
"""

import sys
import time


def read_inputs(latfree, workload: str, paths: list) -> list:
    """Parse the workload's input files with Sublattice.from_obj / Polygon.from_obj."""
    import json  # imported here so the probe's timer covers it

    objs = []
    for path in paths:
        with open(path, "r", encoding="utf-8") as fh:
            objs.append(json.load(fh))
    if workload == "classify_bounds":
        (corpus,) = objs
        return [(item["n"], latfree.Polygon.from_obj(item)) for item in corpus]
    return [latfree.Sublattice.from_obj(obj) for obj in objs]


def main() -> None:
    t0 = time.perf_counter()
    src, workload, paths = sys.argv[1], sys.argv[2], sys.argv[3:]
    sys.path.insert(0, src)
    import latfree
    import latfree.cli  # noqa: F401 - two of the workloads enter through the CLI

    t1 = time.perf_counter()
    read_inputs(latfree, workload, paths)
    t2 = time.perf_counter()
    print('{"import_s": %r, "read_s": %r, "setup_s": %r}' % (t1 - t0, t2 - t1, t2 - t0))


if __name__ == "__main__":
    main()
