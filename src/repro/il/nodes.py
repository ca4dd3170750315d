"""The high-level intermediate language (paper, section 3).

Design rules straight from the paper:

* **Assignment is a statement, not an operator.**  The IL has an
  assignment statement but no assignment operator; every change to a
  memory location is explicit.
* **Expressions are pure.**  ``?:``, ``&&``, ``||``, ``++`` and embedded
  assignments are not representable; the front end compiles C
  expressions into (statement-list, expression) pairs and the statement
  list lands here as explicit assignments.
* **Loops are explicit.**  ``for`` is lowered to ``while``; the
  while→DO pass recovers counted :class:`DoLoop` statements ("do
  fortran" in the paper's output) which the vectorizer consumes.
* **No hard pointers** (section 7): every node is a plain dataclass that
  pickles cleanly, so procedures can be stored in catalogs/databases and
  inlined across files.

Memory references keep the C "star" form: ``a[i]`` lowers to
``Mem(AddrOf(a) + 4*i)``, exactly the pointer-plus-scaled-index shape the
paper says the vectorizer was specially tuned to handle (section 9).
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Tuple, Union

from ..frontend.ctypes_ import CType, INT, PointerType
from ..frontend.symtab import Symbol

# ---------------------------------------------------------------------------
# Expressions (pure)
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class Expr:
    """Base class of pure IL expressions."""

    ctype: CType = field(kw_only=True, default=INT)

    def children(self) -> Tuple["Expr", ...]:
        return ()

    def replace_children(self, new: Sequence["Expr"]) -> "Expr":
        if new:
            raise ValueError(f"{type(self).__name__} has no children")
        return self


@dataclass(eq=False)
class Const(Expr):
    """An integer or floating constant."""

    value: Union[int, float] = 0

    def __repr__(self) -> str:
        return f"Const({self.value})"


@dataclass(eq=False)
class VarRef(Expr):
    """A scalar variable reference (usable as rvalue or assign target)."""

    sym: Symbol = None  # type: ignore[assignment]

    @property
    def is_volatile(self) -> bool:
        return self.sym.is_volatile

    def __repr__(self) -> str:
        return f"VarRef({self.sym.name})"


@dataclass(eq=False)
class AddrOf(Expr):
    """The address of a named object (an address constant)."""

    sym: Symbol = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"AddrOf({self.sym.name})"


@dataclass(eq=False)
class Mem(Expr):
    """A memory reference through an address expression.

    Usable as an rvalue (a load) and as an assignment target (a store).
    ``volatile`` on ``ctype`` marks references the optimizer must not
    duplicate, move, or delete.
    """

    addr: Expr = None  # type: ignore[assignment]

    @property
    def is_volatile(self) -> bool:
        return self.ctype.is_volatile

    def children(self) -> Tuple[Expr, ...]:
        return (self.addr,)

    def replace_children(self, new: Sequence[Expr]) -> "Mem":
        (addr,) = new
        return Mem(addr=addr, ctype=self.ctype)

    def __repr__(self) -> str:
        return f"Mem({self.addr!r})"


@dataclass(eq=False)
class BinOp(Expr):
    """Binary operator on pure operands.

    Ops: ``+ - * / % << >> & | ^ == != < > <= >= min max``.
    Comparisons yield int 0/1.  No short-circuit forms exist at this
    level (they were compiled away by the front end).
    """

    op: str = "+"
    left: Expr = None  # type: ignore[assignment]
    right: Expr = None  # type: ignore[assignment]

    def children(self) -> Tuple[Expr, ...]:
        return (self.left, self.right)

    def replace_children(self, new: Sequence[Expr]) -> "BinOp":
        left, right = new
        return BinOp(op=self.op, left=left, right=right, ctype=self.ctype)

    def __repr__(self) -> str:
        return f"BinOp({self.op}, {self.left!r}, {self.right!r})"


@dataclass(eq=False)
class UnOp(Expr):
    """Unary operator: ``neg not bnot`` plus conversions via Cast."""

    op: str = "neg"
    operand: Expr = None  # type: ignore[assignment]

    def children(self) -> Tuple[Expr, ...]:
        return (self.operand,)

    def replace_children(self, new: Sequence[Expr]) -> "UnOp":
        (operand,) = new
        return UnOp(op=self.op, operand=operand, ctype=self.ctype)

    def __repr__(self) -> str:
        return f"UnOp({self.op}, {self.operand!r})"


@dataclass(eq=False)
class Cast(Expr):
    operand: Expr = None  # type: ignore[assignment]

    def children(self) -> Tuple[Expr, ...]:
        return (self.operand,)

    def replace_children(self, new: Sequence[Expr]) -> "Cast":
        (operand,) = new
        return Cast(operand=operand, ctype=self.ctype)

    def __repr__(self) -> str:
        return f"Cast({self.ctype}, {self.operand!r})"


@dataclass(eq=False)
class Select(Expr):
    """A pure element merge: ``cond ? then : otherwise``, evaluated
    *lazily* like the branch it replaces — the condition first, then
    only the chosen arm, so predication never speculates a faulting
    load or division the original guard protected.  Produced by the
    if-conversion pass; the vectorizer turns selects against the
    assignment target into masked vector stores.
    """

    cond: Expr = None  # type: ignore[assignment]
    then: Expr = None  # type: ignore[assignment]
    otherwise: Expr = None  # type: ignore[assignment]

    def children(self) -> Tuple[Expr, ...]:
        return (self.cond, self.then, self.otherwise)

    def replace_children(self, new: Sequence[Expr]) -> "Select":
        cond, then, otherwise = new
        return Select(cond=cond, then=then, otherwise=otherwise,
                      ctype=self.ctype)

    def __repr__(self) -> str:
        return (f"Select({self.cond!r}, {self.then!r}, "
                f"{self.otherwise!r})")


@dataclass(eq=False)
class CallExpr(Expr):
    """A function call.  Only valid immediately under Assign/CallStmt,
    never nested inside another expression (calls have side effects)."""

    name: str = ""
    args: List[Expr] = field(default_factory=list)

    def children(self) -> Tuple[Expr, ...]:
        return tuple(self.args)

    def replace_children(self, new: Sequence[Expr]) -> "CallExpr":
        return CallExpr(name=self.name, args=list(new), ctype=self.ctype)

    def __repr__(self) -> str:
        return f"CallExpr({self.name}, {self.args!r})"


@dataclass(eq=False)
class Section(Expr):
    """A vector section ``base[lo : hi : stride]`` over memory.

    ``addr`` is the byte address of element 0 of the section; ``length``
    is the trip count; ``stride`` is in *elements* of ``ctype``.  This is
    the colon notation of the paper's vectorized output (section 9).
    """

    addr: Expr = None  # type: ignore[assignment]
    length: Expr = None  # type: ignore[assignment]
    stride: int = 1

    def children(self) -> Tuple[Expr, ...]:
        return (self.addr, self.length)

    def replace_children(self, new: Sequence[Expr]) -> "Section":
        addr, length = new
        return Section(addr=addr, length=length, stride=self.stride,
                       ctype=self.ctype)

    def __repr__(self) -> str:
        return f"Section({self.addr!r}, n={self.length!r}, s={self.stride})"


@dataclass(eq=False)
class Iota(Expr):
    """The index vector ``start, start+1, start+2, ...`` — lane *k*
    holds ``start + k``.  Only valid inside vector statements; the
    vectorizer materializes it when a loop index escapes memory
    addressing into the dataflow (most commonly an if-converted
    boundary guard like ``i > 0`` becoming a store mask)."""

    start: Expr = None  # type: ignore[assignment]

    def children(self) -> Tuple[Expr, ...]:
        return (self.start,)

    def replace_children(self, new: Sequence[Expr]) -> "Iota":
        (start,) = new
        return Iota(start=start, ctype=self.ctype)

    def __repr__(self) -> str:
        return f"Iota({self.start!r})"


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------

#: Statement ids; the default counter serves IL built outside a scope.
_SIDS = ContextVar("titancc_sids", default=itertools.count(1))


@contextmanager
def sid_scope() -> Iterator[None]:
    """Number the statements created inside the block from 1.  Every
    ``TitanCompiler.compile`` and service ``build_catalog`` runs in its
    own scope, so the sids it produces, and every report byte that
    embeds one, depend only on its input."""
    token = _SIDS.set(itertools.count(1))
    try:
        yield
    finally:
        _SIDS.reset(token)


@dataclass(eq=False)
class Stmt:
    """Base class of IL statements.  ``sid`` is a stable identity used
    by use-def chains and the dependence graph."""

    sid: int = field(default_factory=lambda: next(_SIDS.get()),
                     kw_only=True)
    # 1-based source line the statement was lowered from (0 = synthetic
    # or unknown).  Carried through transformations so optimization
    # remarks and the hot-loop profiler can point at the C source.
    line: int = field(default=0, kw_only=True)

    def substatements(self) -> Tuple[List["Stmt"], ...]:
        """The nested statement lists (empty for leaf statements)."""
        return ()


LValue = Union[VarRef, Mem]


@dataclass(eq=False)
class Assign(Stmt):
    """``target = value`` — the only way memory changes (section 3)."""

    target: LValue = None  # type: ignore[assignment]
    value: Expr = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"Assign({self.target!r} = {self.value!r})"


@dataclass(eq=False)
class VectorAssign(Stmt):
    """A vector assignment over Sections; produced by the vectorizer.

    When ``mask`` is present the statement is a *masked* store: the
    mask expression is evaluated element-wise over the section length
    (all lanes), then the value (all lanes — reads complete before any
    write, as ever), and only lanes whose mask element is non-zero are
    written back.  This is the execution form of an if-converted loop
    body (the ``where`` of the paper-era vector Fortrans).
    """

    target: Section = None  # type: ignore[assignment]
    value: Expr = None  # type: ignore[assignment]
    mask: Optional[Expr] = None

    def __repr__(self) -> str:
        where = f" where {self.mask!r}" if self.mask is not None else ""
        return f"VectorAssign({self.target!r} = {self.value!r}{where})"


@dataclass(eq=False)
class VectorReduce(Stmt):
    """A vector reduction: ``target = target ⊕ (e₀ ⊕ e₁ ⊕ ... )`` over
    the elements of a section-valued expression.

    The reference semantics accumulate the elements **in index order**
    (so results are bit-identical to the scalar loop); only the timing
    model exploits the pipelined reduction.  ``op`` is ``+``, ``min``,
    or ``max``.
    """

    target: "VarRef" = None  # type: ignore[assignment]
    op: str = "+"
    value: Expr = None  # type: ignore[assignment]
    length: Expr = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"VectorReduce({self.target!r} {self.op}= {self.value!r})"


@dataclass(eq=False)
class CallStmt(Stmt):
    """A call whose result (if any) is discarded."""

    call: CallExpr = None  # type: ignore[assignment]


@dataclass(eq=False)
class IfStmt(Stmt):
    cond: Expr = None  # type: ignore[assignment]
    then: List[Stmt] = field(default_factory=list)
    otherwise: List[Stmt] = field(default_factory=list)

    def substatements(self):
        return (self.then, self.otherwise)


@dataclass(eq=False)
class WhileLoop(Stmt):
    """A general while loop.  The condition is *pure*; the front end
    duplicated any condition side effects into the body (section 4)."""

    cond: Expr = None  # type: ignore[assignment]
    body: List[Stmt] = field(default_factory=list)
    pragmas: Tuple[str, ...] = ()

    def substatements(self):
        return (self.body,)


@dataclass(eq=False)
class DoLoop(Stmt):
    """A counted DO loop ("do fortran" in the paper's output).

    Semantics: ``var`` takes values lo, lo+step, ... while
    ``var <= hi`` (step>0) or ``var >= hi`` (step<0).  ``step`` must be a
    non-zero constant by construction.  ``parallel`` marks loops the
    parallelizer spread across processors ("do parallel"); ``vector``
    marks loops whose body is entirely vector assignments.
    """

    var: Symbol = None  # type: ignore[assignment]
    lo: Expr = None  # type: ignore[assignment]
    hi: Expr = None  # type: ignore[assignment]
    step: int = 1
    body: List[Stmt] = field(default_factory=list)
    parallel: bool = False
    vector: bool = False
    pragmas: Tuple[str, ...] = ()

    def substatements(self):
        return (self.body,)

    def __repr__(self) -> str:
        kind = "parallel " if self.parallel else ""
        return (f"DoLoop({kind}{self.var.name} = {self.lo!r}, {self.hi!r},"
                f" {self.step})")


@dataclass(eq=False)
class ListParallelLoop(Stmt):
    """A parallelized linked-list traversal (the paper's section 10
    future work, implemented).

    Semantics: starting from ``ptr``'s current value, the *serial*
    ``advance`` statements are executed repeatedly to enumerate the
    node pointers (while ``ptr`` is non-null); the ``body`` then runs
    once per recorded node with ``ptr`` bound to that node, and those
    executions may proceed in any order on any processor.  Validity
    rests on the paper's stated assumption "that each motion down a
    pointer goes to independent storage".
    """

    ptr: Symbol = None  # type: ignore[assignment]
    next_offset: int = 0  # byte offset of the link field (diagnostic)
    advance: List[Stmt] = field(default_factory=list)
    body: List[Stmt] = field(default_factory=list)

    def substatements(self):
        return (self.body, self.advance)

    def __repr__(self) -> str:
        return f"ListParallelLoop({self.ptr.name}, +{self.next_offset})"


@dataclass(eq=False)
class Goto(Stmt):
    label: str = ""


@dataclass(eq=False)
class LabelStmt(Stmt):
    label: str = ""


@dataclass(eq=False)
class Return(Stmt):
    value: Optional[Expr] = None


# ---------------------------------------------------------------------------
# Functions and programs
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class ILFunction:
    """One procedure in IL form.

    ``body`` is a statement list; ``params`` are symbols bound at entry.
    ``pragmas`` carries source-level hints (e.g. ``safe`` = no argument
    aliasing, the paper's escape hatch for daxpy-like routines).
    """

    name: str
    params: List[Symbol]
    ret_type: CType
    body: List[Stmt]
    pragmas: Tuple[str, ...] = ()
    # Locals that the lowering or optimizer created; used by the
    # interpreter and simulator to allocate frames.
    local_syms: List[Symbol] = field(default_factory=list)

    def all_statements(self) -> Iterator[Stmt]:
        yield from walk_statements(self.body)


@dataclass(eq=False)
class GlobalVar:
    sym: Symbol
    # Scalar constant, list of constants, or a Symbol (the address of
    # another global — how ``char *s = "abc";`` is initialized).
    init: Optional[object] = None


@dataclass(eq=False)
class ILProgram:
    functions: dict  # name -> ILFunction
    globals: List[GlobalVar] = field(default_factory=list)
    # The owning symbol table; passes that create temporaries draw
    # fresh uids from here so symbol identity stays program-unique.
    symtab: Optional[object] = None

    def function(self, name: str) -> ILFunction:
        return self.functions[name]

    def global_named(self, name: str) -> GlobalVar:
        for g in self.globals:
            if g.sym.name == name:
                return g
        raise KeyError(name)


# ---------------------------------------------------------------------------
# Traversal helpers
# ---------------------------------------------------------------------------


def walk_statements(stmts: Sequence[Stmt]) -> Iterator[Stmt]:
    """Preorder traversal of a statement list and all nested lists."""
    for stmt in stmts:
        yield stmt
        for sub in stmt.substatements():
            yield from walk_statements(sub)


def walk_expr(expr: Expr) -> Iterator[Expr]:
    """Preorder traversal of an expression tree."""
    yield expr
    for child in expr.children():
        yield from walk_expr(child)


def stmt_exprs(stmt: Stmt) -> Iterator[Expr]:
    """The top-level expressions of one statement (not nested stmts)."""
    if isinstance(stmt, (Assign, VectorAssign)):
        yield stmt.target
        yield stmt.value
        if isinstance(stmt, VectorAssign) and stmt.mask is not None:
            yield stmt.mask
    elif isinstance(stmt, VectorReduce):
        yield stmt.target
        yield stmt.value
        yield stmt.length
    elif isinstance(stmt, CallStmt):
        yield stmt.call
    elif isinstance(stmt, IfStmt):
        yield stmt.cond
    elif isinstance(stmt, WhileLoop):
        yield stmt.cond
    elif isinstance(stmt, DoLoop):
        yield stmt.lo
        yield stmt.hi
    elif isinstance(stmt, Return) and stmt.value is not None:
        yield stmt.value


def map_expr(expr: Expr, fn) -> Expr:
    """Rebuild ``expr`` bottom-up, applying ``fn`` to each node."""
    children = [map_expr(c, fn) for c in expr.children()]
    if children:
        expr = expr.replace_children(children)
    return fn(expr)


def vars_read(expr: Expr) -> Iterator[Symbol]:
    """Every scalar symbol read by ``expr`` (including inside Mem addrs)."""
    for node in walk_expr(expr):
        if isinstance(node, VarRef):
            yield node.sym


def expr_equal(a: Expr, b: Expr) -> bool:
    """Structural equality of pure expressions."""
    if type(a) is not type(b):
        return False
    if isinstance(a, Const):
        return a.value == b.value and type(a.value) is type(b.value)
    if isinstance(a, (VarRef, AddrOf)):
        return a.sym == b.sym
    if isinstance(a, BinOp) and a.op != b.op:
        return False
    if isinstance(a, UnOp) and a.op != b.op:
        return False
    if isinstance(a, CallExpr):
        return False  # calls are never equal (side effects)
    if isinstance(a, Cast) and a.ctype != b.ctype:
        return False
    if isinstance(a, Section) and a.stride != b.stride:
        return False
    ca, cb = a.children(), b.children()
    return len(ca) == len(cb) and all(
        expr_equal(x, y) for x, y in zip(ca, cb))


def clone_expr(expr: Expr) -> Expr:
    """Deep-copy an expression tree (symbols are shared, nodes are not)."""
    return map_expr(expr, lambda e: e)


def int_const(value: int) -> Const:
    return Const(value=value, ctype=INT)


def is_const(expr: Expr, value: Optional[Union[int, float]] = None) -> bool:
    if not isinstance(expr, Const):
        return False
    return value is None or expr.value == value
