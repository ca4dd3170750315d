"""Reference outputs for the benchmark's output checks.

Usage: ``python perfbench/reference.py``, started by
:class:`perfbench.common.References`.  It reads one JSON request per
line on stdin and answers each with one JSON line on stdout:

* ``{"program": SOURCE, "name": NAME}`` ->
  ``{"value": ..., "stdout": ..., "o0_cycles": ...}``: the tree oracle
  running ``main`` of the unoptimized IL, and the simulated cycles of
  the O0 build;
* ``{"kernels": SEED}`` -> ``{"value": {kernel: observed}}``: the
  tree oracle's outputs for each ``simulate_kernels`` kernel of that
  seed.

A request whose reference run raises is answered ``{"error": ...}``.
The work runs in this process so that it never lifts the benchmark
process's memory high-water mark.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

from perfbench import common  # noqa: E402


def oracle(source: str, entry: str = "main", args=(), setup=None,
           name: str = "<bench>"):
    """The unoptimized front-end IL on the tree-walking interpreter.
    Returns ``(result, stdout, interpreter)``."""
    from repro.frontend.lower import compile_to_il
    from repro.interp import make_interpreter
    interp = make_interpreter(compile_to_il(source, name), engine="tree",
                              max_steps=50_000_000)
    if setup is not None:
        setup(interp)
    value = interp.run(entry, *args)
    return value, interp.stdout, interp


def o0_cycles(source: str, name: str) -> float:
    """Simulated cycles of ``main`` in the O0 build of ``source``."""
    from repro.pipeline import TitanCompiler
    from repro.titan.simulator import TitanSimulator
    result = TitanCompiler(common.o0_options()).compile(source, name)
    return TitanSimulator(result.program).run("main").cycles


def answer(request: dict) -> dict:
    if "kernels" in request:
        from perfbench.simulate_kernels import make_kernels
        observed = {}
        for kernel in make_kernels(request["kernels"]):
            value, _, interp = oracle(kernel.source, kernel.entry,
                                      kernel.args, kernel.setup,
                                      name=kernel.name)
            observed[kernel.name] = kernel.observe(interp, value)
        return {"value": observed}
    source, name = request["program"], request["name"]
    value, stdout, _ = oracle(source, name=name)
    return {"value": value, "stdout": stdout,
            "o0_cycles": o0_cycles(source, name)}


def main() -> None:
    common.require_tree()
    # Answers get a stream of their own; anything else printed goes to
    # stderr.
    replies = os.fdopen(os.dup(sys.stdout.fileno()), "w")
    sys.stdout = sys.stderr
    for line in sys.stdin:
        try:
            reply = answer(json.loads(line))
        except Exception as exc:  # noqa: BLE001 — reported to the client
            reply = {"error": f"{type(exc).__name__}: {exc}"}
        replies.write(json.dumps(reply) + "\n")
        replies.flush()


if __name__ == "__main__":
    main()
