"""Static cost-event table: which Titan cost events an IL construct
emits each time it executes.

The tree oracle (:mod:`repro.interp.interpreter`) reports every dynamic
operation to its cost hook as it runs.  This module describes the same
emission sites statically, so an engine can count how often each piece
of code ran and have the cost model price ``events × count`` once,
instead of receiving one call per event.

An event is ``(kind, detail)`` exactly as the oracle emits it:
``("load", ctype)``, ``("store", ctype)``, ``("flop", op)``,
``("intop", op)``, ``("call", name)``.  The table holds event *counts*
only; what an event costs lives in :class:`repro.titan.cost_model.
TitanCostModel`.

``in_memory(sym)`` says whether a variable lives in memory (reads and
writes of it are loads and stores) or in a register (no event).

Lazy ``Select`` arms are excluded from :func:`expr_events`: only the
chosen arm runs, so a counting engine gives each arm its own counter
and asks for that arm's events separately.
"""

from __future__ import annotations

from typing import Callable, List, Tuple

from ..frontend.symtab import Symbol
from ..il import nodes as N

Event = Tuple[str, object]
InMemory = Callable[[Symbol], bool]


def op_event(expr: N.Expr, op: str) -> Event:
    return ("flop" if expr.ctype.is_float else "intop", op)


def expr_events(expr: N.Expr, in_memory: InMemory,
                out: List[Event]) -> List[Event]:
    """Append the events one scalar evaluation of ``expr`` emits, in
    the oracle's order, leaving out the arms of every ``Select``."""
    if isinstance(expr, N.VarRef):
        if in_memory(expr.sym):
            out.append(("load", expr.sym.ctype))
    elif isinstance(expr, N.Mem):
        expr_events(expr.addr, in_memory, out)
        out.append(("load", expr.ctype))
    elif isinstance(expr, N.BinOp):
        expr_events(expr.left, in_memory, out)
        expr_events(expr.right, in_memory, out)
        out.append(op_event(expr, expr.op))
    elif isinstance(expr, N.UnOp):
        expr_events(expr.operand, in_memory, out)
        out.append(op_event(expr, expr.op))
    elif isinstance(expr, N.Cast):
        expr_events(expr.operand, in_memory, out)
    elif isinstance(expr, N.Select):
        expr_events(expr.cond, in_memory, out)
        out.append(op_event(expr, "select"))
    elif isinstance(expr, N.CallExpr):
        for arg in expr.args:
            expr_events(arg, in_memory, out)
        out.append(("call", expr.name))
    return out


def write_events(sym: Symbol, in_memory: InMemory) -> List[Event]:
    """A variable write: a store when the variable lives in memory."""
    return [("store", sym.ctype)] if in_memory(sym) else []


def target_events(target: N.Expr, in_memory: InMemory) -> List[Event]:
    """The events of an assignment after its value is computed: the
    address of a memory target, then the store."""
    if isinstance(target, N.Mem):
        out = expr_events(target.addr, in_memory, [])
        out.append(("store", target.ctype))
        return out
    if isinstance(target, N.VarRef):
        return write_events(target.sym, in_memory)
    return []


def vector_ops(stmt: N.VectorAssign) -> List[Tuple[str, int]]:
    """``(op, stride)`` per vector instruction of a vector assignment:
    one per load section, per dataflow operator (address arithmetic is
    free vector addressing) and for the store, in emission order."""
    ops: List[Tuple[str, int]] = []

    def walk(expr: N.Expr) -> None:
        if isinstance(expr, N.Section):
            ops.append(("load", expr.stride))
            return
        if isinstance(expr, N.Mem):
            return  # broadcast scalar load, evaluated once
        if isinstance(expr, N.Iota):
            # One index-generation instruction; the scalar start is
            # vector addressing, not dataflow.
            ops.append(("int_op", 1))
            return
        if isinstance(expr, (N.BinOp, N.UnOp)):
            ops.append((expr.op if expr.ctype.is_float else "int_op", 1))
        elif isinstance(expr, N.Select):
            ops.append(("select" if expr.ctype.is_float else "int_op", 1))
        for child in expr.children():
            walk(child)

    if stmt.mask is not None:
        walk(stmt.mask)
    walk(stmt.value)
    ops.append(("store" if stmt.mask is None else "mask_store",
                stmt.target.stride))
    return ops
