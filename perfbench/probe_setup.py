"""One set-up of a workload in a fresh interpreter, for the set-up metrics.

Run by ``run.py`` as a child process:

    python3 -X importtime perfbench/probe_setup.py <workload> <seed>

It imports vancyc and its command-line module, then builds the workload's
inputs, and prints one JSON line with the time of each step and
``time.monotonic()`` at the moment the inputs are ready.  The parent reads
the interpreter's start-up cost from that clock, which is shared by every
process on the machine, and the part of ``setup.import_vancyc_s`` spent
importing numpy (0 when vancyc does not load it) from the ``-X importtime``
report on standard error.
"""

import json
import sys
import time
from pathlib import Path


def main(workload: str, seed: int) -> None:
    t0 = time.perf_counter()
    import vancyc  # noqa: F401
    import vancyc.cli  # noqa: F401  (not imported by the package itself)
    t1 = time.perf_counter()
    import workloads
    items = workloads.build_items(workload, seed)
    t2 = time.perf_counter()
    ready = time.monotonic()
    print(json.dumps({
        "ready": ready,
        "setup.import_vancyc_s": t1 - t0,
        "setup.inputs_s": t2 - t1,
        "items": len(items),
    }))


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    main(sys.argv[1], int(sys.argv[2]))
