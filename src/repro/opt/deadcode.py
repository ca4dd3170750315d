"""Dead-code elimination (section 8).

"Dead code is common" once inlining tailors a general procedure to a
specific call site.  This pass removes:

* assignments to scalars that are dead after the assignment (by
  backward liveness), provided the RHS has no observable effect — calls
  stay (demoted to call statements), volatile reads stay (a device read
  is an effect), stores through pointers always stay;
* labels that no goto references;
* ``if`` statements whose branches emptied out;
* trailing statements of a list cut off by ``goto``/``return`` up to the
  next label (the paper's quick unreachable postpass).
"""

from __future__ import annotations

#: Canonical pass name used by the pipeline hook layer, the
#: per-pass checker, and bisection culprit reports.
PASS_NAME = "deadcode"
PASS_DESCRIPTION = "dead-code elimination (section 8)"

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..analysis.flowgraph import FlowGraph
from ..analysis.liveness import Liveness
from ..il import nodes as N
from . import utils


@dataclass
class DCEStats:
    assignments_removed: int = 0
    labels_removed: int = 0
    empty_ifs_removed: int = 0
    unreachable_removed: int = 0
    iterations: int = 0


class _LiveCache:
    """Liveness (and its flow graph) of one function, reused until a
    sub-step reports that it mutated the function."""

    def __init__(self, fn: N.ILFunction,
                 globals_: Sequence[N.GlobalVar]):
        self.fn = fn
        self.globals_ = globals_
        self._liveness: Optional[Liveness] = None

    def get(self) -> Liveness:
        if self._liveness is None:
            self._liveness = Liveness(FlowGraph(self.fn), self.globals_)
        return self._liveness

    def note(self, changed: bool) -> bool:
        """Drop the analyses if ``changed``; pass ``changed`` through."""
        if changed:
            self._liveness = None
        return changed


def eliminate_dead_code(fn: N.ILFunction,
                        globals_: Sequence[N.GlobalVar] = ()) -> DCEStats:
    stats = DCEStats()
    cache = _LiveCache(fn, globals_)
    while True:
        stats.iterations += 1
        changed = cache.note(_prune_unreachable_tails(fn.body, stats))
        changed |= cache.note(_remove_dead_assigns(fn, cache.get(), stats))
        changed |= cache.note(_remove_dead_labels(fn, stats))
        changed |= cache.note(_remove_empty_ifs(fn.body, stats))
        changed |= cache.note(_remove_empty_do_loops(fn, cache.get(),
                                                     stats))
        if not changed or stats.iterations > 50:
            return stats


def _remove_dead_assigns(fn: N.ILFunction, liveness: Liveness,
                         stats: DCEStats) -> bool:
    owners = _owner_map(fn.body)
    changed = False
    for node in liveness.graph.nodes:
        if node.kind != "assign" or not isinstance(node.stmt, N.Assign):
            continue
        stmt = node.stmt
        if not isinstance(stmt.target, N.VarRef):
            continue  # stores are never dead (may alias anything)
        sym = stmt.target.sym
        if sym.is_volatile or stmt.target.is_volatile:
            continue
        if liveness.is_live_after(node, sym):
            continue
        owner = owners.get(stmt.sid)
        if owner is None or stmt not in owner:
            continue
        if utils.expr_has_volatile(stmt.value):
            continue  # the read itself is observable
        index = owner.index(stmt)
        if isinstance(stmt.value, N.CallExpr):
            owner[index] = N.CallStmt(call=stmt.value)
        else:
            del owner[index]
        stats.assignments_removed += 1
        changed = True
    return changed


def _remove_dead_labels(fn: N.ILFunction, stats: DCEStats) -> bool:
    used = utils.gotos_in(fn.body)
    changed = False
    for owner in list(utils.each_stmt_list(fn.body)):
        for stmt in list(owner):
            if isinstance(stmt, N.LabelStmt) and stmt.label not in used:
                owner.remove(stmt)
                stats.labels_removed += 1
                changed = True
    return changed


def _remove_empty_ifs(stmts: List[N.Stmt], stats: DCEStats) -> bool:
    changed = False
    for owner in list(utils.each_stmt_list(stmts)):
        for stmt in list(owner):
            if isinstance(stmt, N.IfStmt) and not stmt.then \
                    and not stmt.otherwise \
                    and not utils.expr_has_volatile(stmt.cond) \
                    and not utils.expr_has_call(stmt.cond):
                owner.remove(stmt)
                stats.empty_ifs_removed += 1
                changed = True
    return changed


def _remove_empty_do_loops(fn: N.ILFunction, liveness: Liveness,
                           stats: DCEStats) -> bool:
    """An empty DO loop only sets its variable; if that value is dead,
    the loop goes (bounds are pure by IL construction)."""
    owners = _owner_map(fn.body)
    changed = False
    for node in liveness.graph.nodes:
        if node.kind != "do_init" or not isinstance(node.stmt, N.DoLoop):
            continue
        loop = node.stmt
        if loop.body:
            continue
        if utils.expr_has_volatile(loop.lo) \
                or utils.expr_has_volatile(loop.hi):
            continue
        if liveness.is_live_after(node, loop.var):
            continue
        owner = owners.get(loop.sid)
        if owner is not None and loop in owner:
            owner.remove(loop)
            stats.empty_ifs_removed += 1
            changed = True
    return changed


def _prune_unreachable_tails(stmts: List[N.Stmt],
                             stats: DCEStats) -> bool:
    """Drop statements after an unconditional goto/return up to the
    next label — the cheap textual part of unreachable elimination."""
    changed = False
    for owner in list(utils.each_stmt_list(stmts)):
        index = 0
        while index < len(owner):
            stmt = owner[index]
            if isinstance(stmt, (N.Goto, N.Return)):
                cut = index + 1
                while cut < len(owner):
                    tail = owner[cut]
                    if isinstance(tail, N.LabelStmt) or \
                            utils.labels_in([tail]):
                        break
                    del owner[cut]
                    stats.unreachable_removed += 1
                    changed = True
            index += 1
    return changed


def _owner_map(body: List[N.Stmt]) -> Dict[int, List[N.Stmt]]:
    owners: Dict[int, List[N.Stmt]] = {}
    for lst in utils.each_stmt_list(body):
        for stmt in lst:
            owners[stmt.sid] = lst
    return owners
