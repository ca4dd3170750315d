"""Time one workload's set-up in a fresh process.

Usage: ``python perfbench/probe.py WORKLOAD``.  Prints the seconds
from the start of the workload's ``setup()`` (imports of the compiler
included) to the point where its long-lived objects are ready.
"""

import importlib
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def main() -> None:
    module = importlib.import_module(f"perfbench.{sys.argv[1]}")
    start = time.perf_counter()
    ready = module.setup()
    elapsed = time.perf_counter() - start
    if ready is not None:
        ready.close()
    print(f"{elapsed:.6f}")


if __name__ == "__main__":
    main()
