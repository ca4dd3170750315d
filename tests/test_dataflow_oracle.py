"""Liveness and reaching definitions against a set-based reference.

The production solvers run on int bitmasks over dense node indices.
The reference below is the textbook formulation on Python sets, kept
deliberately naive.  Both see the same per-node use and def sets; they
must agree on every flow node for every location, on the front end's
IL and on the fully optimized IL (DO loops, vector statements, list
loops) of the examples, the accepting fuzz corpus and generated
programs.
"""

import glob
import os

import pytest

from repro.analysis.flowgraph import (FlowGraph, MEMORY, aliased_symbols,
                                      node_defs, node_uses)
from repro.analysis.liveness import Liveness
from repro.analysis.usedef import UseDefChains
from repro.frontend.lower import compile_to_il
from repro.fuzz.generator import GeneratorOptions, generate_program
from repro.il import nodes as N
from repro.il.printer import format_program
from repro.opt import deadcode
from repro.pipeline import compile_c

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
LARGE = GeneratorOptions(min_blocks=6, max_blocks=9)


def _sources():
    paths = sorted(glob.glob(os.path.join(ROOT, "examples", "*.c")))
    paths += sorted(glob.glob(os.path.join(ROOT, "tests", "fuzz_corpus",
                                           "*.c")))
    for path in paths:
        with open(path) as handle:
            source = handle.read()
        if not source.startswith("// expect: reject"):
            yield os.path.basename(path), source
    for seed in range(30):
        options = LARGE if seed % 3 == 2 else GeneratorOptions()
        yield f"gen{seed}", generate_program(seed, options).source


SOURCES = dict(_sources())


def _strong_kill(node):
    """Symbols the node definitely overwrites."""
    stmt = node.stmt
    if node.kind in ("do_init", "do_step"):
        return {stmt.var}
    if node.kind == "assign" and isinstance(stmt, N.Assign) \
            and isinstance(stmt.target, N.VarRef):
        return {stmt.target.sym}
    return set()


def reference_live_out(graph, aliased):
    uses = {node: node_uses(node, aliased) for node in graph.nodes}
    live_in = {node: set() for node in graph.nodes}
    live_out = {node: set() for node in graph.nodes}
    live_out[graph.exit] = {MEMORY} | set(aliased)
    changed = True
    while changed:
        changed = False
        for node in graph.nodes:
            out = live_out[graph.exit] if node is graph.exit else \
                set().union(*(live_in[s] for s in node.succs))
            new_in = uses[node] | (out - _strong_kill(node))
            if (out, new_in) != (live_out[node], live_in[node]):
                live_out[node], live_in[node] = out, new_in
                changed = True
    return live_out


def reference_reaching_in(graph, fn, aliased):
    defs = {node: node_defs(node, fn, aliased) for node in graph.nodes}
    every = {(node, loc) for node in graph.nodes for loc in defs[node]}

    def kill(node):
        strong = node.kind == "entry" or _strong_kill(node)
        if not strong:
            return set()
        scalars = {loc for loc in defs[node]
                   if loc is not MEMORY and loc not in aliased}
        return {d for d in every if d[1] in scalars}

    kills = {node: kill(node) for node in graph.nodes}
    reach_in = {node: set() for node in graph.nodes}
    reach_out = {node: set() for node in graph.nodes}
    changed = True
    while changed:
        changed = False
        for node in graph.nodes:
            new_in = set().union(*(reach_out[p] for p in node.preds))
            new_out = {(node, loc) for loc in defs[node]} \
                | (new_in - kills[node])
            if (new_in, new_out) != (reach_in[node], reach_out[node]):
                reach_in[node], reach_out[node] = new_in, new_out
                changed = True
    return reach_in


def _functions(source):
    yield compile_to_il(source)
    yield compile_c(source).program


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_bitmask_solvers_match_set_reference(name):
    for program in _functions(SOURCES[name]):
        for fn in program.functions.values():
            graph = FlowGraph(fn)
            aliased = aliased_symbols(fn, program.globals)
            liveness = Liveness(graph, program.globals)
            chains = UseDefChains(graph, program.globals)
            locations = {MEMORY} | set(aliased) | set(fn.params)
            for node in graph.nodes:
                locations |= node_uses(node, aliased)
                locations |= node_defs(node, fn, aliased)
            live_out = reference_live_out(graph, aliased)
            reach_in = reference_reaching_in(graph, fn, aliased)
            for node in graph.nodes:
                for loc in locations:
                    assert liveness.is_live_after(node, loc) \
                        == (loc in live_out[node]), (fn.name, node, loc)
                    got = chains.defs_reaching(node, loc)
                    assert {(d.node, d.location) for d in got} == \
                        {d for d in reach_in[node] if d[1] == loc}, \
                        (fn.name, node, loc)
                    indices = [d.node.index for d in got]
                    assert indices == sorted(indices)


def _dce_outputs():
    """Final IL of every program, and its front-end IL after dead-code
    elimination alone, where cascades of newly dead temporaries are
    longest."""
    outputs = {}
    for name, source in SOURCES.items():
        program = compile_to_il(source)
        for fn in program.functions.values():
            deadcode.eliminate_dead_code(fn, program.globals)
        outputs[name] = (format_program(program),
                         format_program(compile_c(source).program))
    return outputs


def test_dce_reuse_gives_the_same_il_as_rebuilding(monkeypatch):
    """Reusing liveness until a sub-step mutates must not change what
    dead-code elimination removes."""
    reused = _dce_outputs()

    def rebuild(self):
        return Liveness(FlowGraph(self.fn), self.globals_)

    monkeypatch.setattr(deadcode._LiveCache, "get", rebuild)
    rebuilt = _dce_outputs()
    for name in SOURCES:
        assert rebuilt[name] == reused[name], name
