"""Reaching definitions and use-def chains.

Section 5.2 places while→DO conversion "immediately after use-def chains
have been constructed", and induction-variable substitution, constant
propagation, and dead-code elimination are all driven off the same
chains.  This module computes them with a classic iterative worklist over
the flow graph, at single-event granularity (our procedures are small —
the paper's own argument for pragmatism over asymptotics, section 5.3).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..frontend.symtab import Symbol
from ..il import nodes as N
from .flowgraph import (FlowGraph, FlowNode, MEMORY, aliased_symbols,
                        node_defs, node_uses)


@dataclass(frozen=True)
class Definition:
    """One definition point: ``node`` defines ``location``."""

    node: FlowNode
    location: object  # Symbol or MEMORY

    def __repr__(self) -> str:
        name = self.location.name if isinstance(self.location, Symbol) \
            else str(self.location)
        return f"Def({name}@{self.node})"


class UseDefChains:
    """Reaching-definition sets per flow node, queryable per use.

    Per-node facts live in lists indexed by ``node.index``.
    """

    def __init__(self, graph: FlowGraph,
                 globals_: Sequence[N.GlobalVar] = ()):
        self.graph = graph
        self.fn = graph.fn
        self.aliased = aliased_symbols(graph.fn, globals_)
        self._defs_at: List[Set[object]] = [
            node_defs(node, graph.fn, self.aliased) for node in graph.nodes]
        self._uses_at: List[Set[object]] = [
            node_uses(node, self.aliased) for node in graph.nodes]
        self._solve()

    # -- dataflow ----------------------------------------------------------

    def _solve(self) -> None:
        # Definitions are numbered and the dataflow runs on integer
        # bitmasks: without inlining, every call site gen's a may-def of
        # MEMORY plus each aliased symbol, none of which is ever killed,
        # so frozenset-of-Definition sets grow with call count and the
        # solve goes quadratic.  Bit operations keep each transfer O(1)
        # in practice.
        nodes = self.graph.nodes
        all_defs: List[Definition] = []
        gen: List[int] = []
        defs_by_loc: Dict[object, int] = defaultdict(int)
        for node, locs in zip(nodes, self._defs_at):
            mask = 0
            for loc in locs:
                bit = 1 << len(all_defs)
                all_defs.append(Definition(node, loc))
                defs_by_loc[loc] |= bit
                mask |= bit
            gen.append(mask)
        kill: List[int] = []
        for node, locs in zip(nodes, self._defs_at):
            mask = 0
            if _is_strong_def(node):
                # A definite scalar assignment kills prior defs of that
                # scalar; MEMORY and aliased defs accumulate (may-defs).
                for loc in locs:
                    if loc is not MEMORY and loc not in self.aliased:
                        mask |= defs_by_loc[loc]
            kill.append(mask)
        preds = [[pred.index for pred in node.preds] for node in nodes]
        succs = [[succ.index for succ in node.succs] for node in nodes]
        out = [0] * len(nodes)
        in_ = [0] * len(nodes)
        worklist = list(range(len(nodes)))
        while worklist:
            i = worklist.pop()
            new_in = 0
            for pred in preds[i]:
                new_in |= out[pred]
            new_out = gen[i] | (new_in & ~kill[i])
            if new_in != in_[i] or new_out != out[i]:
                in_[i] = new_in
                out[i] = new_out
                worklist.extend(succs[i])
        self._all_defs = all_defs
        self._defs_by_loc = defs_by_loc
        self._in_mask = in_

    # -- queries -----------------------------------------------------------

    def defs_reaching(self, node: FlowNode,
                      location: object) -> List[Definition]:
        mask = self._in_mask[node.index] \
            & self._defs_by_loc.get(location, 0)
        defs = []
        while mask:
            low = mask & -mask
            defs.append(self._all_defs[low.bit_length() - 1])
            mask ^= low
        return defs

    def unique_def(self, node: FlowNode,
                   sym: Symbol) -> Optional[Definition]:
        """The single definition of ``sym`` reaching ``node``, or None
        if zero or several reach."""
        defs = self.defs_reaching(node, sym)
        if len(defs) == 1:
            return defs[0]
        return None

    def uses_of(self, node: FlowNode) -> Set[object]:
        return self._uses_at[node.index]

    def defs_of(self, node: FlowNode) -> Set[object]:
        return self._defs_at[node.index]


def _is_strong_def(node: FlowNode) -> bool:
    """Does this node *definitely* overwrite its scalar targets?"""
    stmt = node.stmt
    if node.kind in ("do_init", "do_step"):
        return True
    if node.kind == "entry":
        return True
    if node.kind == "assign" and isinstance(stmt, N.Assign):
        return isinstance(stmt.target, N.VarRef)
    return False


def build_chains(fn: N.ILFunction,
                 globals_: Sequence[N.GlobalVar] = ()
                 ) -> Tuple[FlowGraph, UseDefChains]:
    """Build the flow graph and use-def chains for ``fn``."""
    graph = FlowGraph(fn)
    return graph, UseDefChains(graph, globals_)
