"""Backward live-variable analysis.

Dead-code elimination (section 8: "Dead code is common" after inlining)
deletes assignments whose scalar target is dead, so long as the value
expression has no observable effect (no call, no volatile access).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Set

from ..frontend.symtab import Symbol
from ..il import nodes as N
from .flowgraph import (FlowGraph, FlowNode, MEMORY, aliased_symbols,
                        node_uses)


class Liveness:
    """Locations live after each flow node.

    Each location (a symbol, or MEMORY) owns one bit, and the live-out
    set of ``graph.nodes[i]`` is the int bitmask ``_after[i]``, so a
    transfer is a couple of integer operations and a query is a bit
    test.
    """

    def __init__(self, graph: FlowGraph,
                 globals_: Sequence[N.GlobalVar] = ()):
        self.graph = graph
        self.aliased = aliased_symbols(graph.fn, globals_)
        self._bit: Dict[object, int] = {}
        self._after: List[int] = []
        self._solve()

    def _mask(self, locations: Iterable[object]) -> int:
        bits = self._bit
        mask = 0
        for loc in locations:
            bit = bits.get(loc)
            if bit is None:
                bit = bits[loc] = 1 << len(bits)
            mask |= bit
        return mask

    def _solve(self) -> None:
        nodes = self.graph.nodes
        uses = [self._mask(node_uses(node, self.aliased)) for node in nodes]
        # Only *must*-defs kill liveness.  A call's may-defs (every
        # aliased symbol) must not make an earlier store look dead — the
        # callee might not write the symbol at all (fuzz find: `g = g -
        # 6; r = h(x); use g` lost the store to g).
        kills = [self._mask(_must_defs(node)) for node in nodes]
        succs = [[succ.index for succ in node.succs] for node in nodes]
        # At exit, globals, aliased locals, params of pointer type (the
        # caller can see what they point at) and MEMORY remain live.
        exit_index = self.graph.exit.index
        exit_live = self._mask([MEMORY, *self.aliased])
        after = [0] * len(nodes)
        before = [0] * len(nodes)
        after[exit_index] = exit_live
        order = range(len(nodes) - 1, -1, -1)
        changed = True
        while changed:
            changed = False
            for i in order:
                if i == exit_index:
                    out = exit_live
                else:
                    out = 0
                    for succ in succs[i]:
                        out |= before[succ]
                new_in = uses[i] | (out & ~kills[i])
                if out != after[i] or new_in != before[i]:
                    after[i] = out
                    before[i] = new_in
                    changed = True
        self._after = after

    def is_live_after(self, node: FlowNode, sym: Symbol) -> bool:
        bit = self._bit.get(sym)
        return bit is not None and bool(self._after[node.index] & bit)


def _must_defs(node: FlowNode) -> Set[Symbol]:
    """Symbols ``node`` definitely writes (the kill set)."""
    stmt = node.stmt
    if node.kind in ("do_init", "do_step"):
        return {stmt.var}
    if node.kind == "assign" and isinstance(stmt, N.Assign) \
            and isinstance(stmt.target, N.VarRef):
        return {stmt.target.sym}
    return set()
