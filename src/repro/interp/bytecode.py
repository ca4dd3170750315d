"""Whole-function Python-codegen execution engine (third tier).

The closure engine (:mod:`repro.interp.compiled`) removed tree-walking
dispatch but still pays one Python call per flow node: every step is a
closure invoked through a trampoline, every local lives in a
list-indexed frame, and the shared step cell is reloaded and flushed
at each fused-chain boundary.  This module removes that layer too:
each ``ILFunction``'s flow graph is lowered **once** into a single
generated Python function.

* Basic blocks become straight-line Python; the computed ``goto``
  structure folds into one ``while True`` dispatch loop over a small
  integer program counter (blocks that merely fall through are inlined
  into their predecessor's block, so simple code has no dispatch at
  all).
* Frame slots become Python locals — ``_rN`` registers, ``_mN``
  per-activation addresses of memory-backed locals, ``_hN`` captured
  DO-loop bounds — giving CPython's fast ``LOAD_FAST`` path.
* Step accounting runs on a plain local counter.  Ticks for a run of
  consecutive pure flow nodes (entry/label/join/goto) batch into the
  next side-effecting node's single ``count += k`` + limit check; the
  check raises with the shared cell landed at exactly
  ``max_steps + 1``, matching the oracle's cell-per-tick behaviour
  observably.  The cell is flushed before any re-entrant call and
  reloaded after, and a ``finally`` lands the final count, so nested
  activations and fault paths observe exact step counts.
* Vector statements (masked ``VectorAssign`` with its mask-first
  evaluation order, lazy per-lane ``Select``, cached ``Section`` bases
  and ``Iota`` starts, broadcast scalars) lower to list comprehensions
  plus a tight store loop over a preallocated value list.
* Plain generated code has **no** instrumentation, so the hook-free
  path is observation-free.  Under a
  :class:`~repro.titan.cost_model.TitanCostModel` without a profiler
  (the Titan simulator) a second, *counting* flavour is generated: it
  bumps one integer counter per straight-line region it enters (a
  block, a loop trip, a lazy ``Select`` arm) and makes one call per
  vector statement (runtime length) and per parallel-region boundary.
  The per-region event table (:mod:`repro.interp.events`) says which
  events each counter stands for; :class:`_CountedRun` prices
  ``events × count`` through the model's bulk
  :meth:`~repro.titan.cost_model.TitanCostModel.charge` at every
  parallel boundary and at the end of the run.  The model sums
  charges exactly, so cycles, counters and breakdown equal the
  oracle's event stream bit for bit.  Any other hook, a profiler, or
  a program with a function that falls back runs on the closure
  tier, whose hooked closures emit the oracle's exact event order.

Anything the generator cannot prove it can lower exactly — volatile
symbols (device hooks), aggregate scalar access, lazily-allocated
address-taken symbols, list-parallel loops, oversized generated
source — falls back to the closure tier for the *whole function*
(raising :class:`_Fallback` during generation), which is already
differentially verified against the oracle.

Generated code is memoized **across engine instances** on the
``ILFunction`` object itself: the code object is instance-independent,
and every bound global is recorded as a *recipe* (pure constant,
memory buffer, step cell, call helper, ...) that each engine
materializes against its own state.  A cached entry is only reused
when its baked facts still hold — same memory size, every baked
global symbol still at its compile-time address — so fresh
interpreters over the same program (benchmark reps, fuzz variant
sweeps, repeated ``simulate`` calls) skip re-lowering entirely.
Each engine counts its own lookups in ``codegen_hits`` and
``codegen_misses``.  Code that mutates a program
in place must call :meth:`BytecodeInterpreter.invalidate_graphs`,
which drops these entries along with the flow-graph caches.
"""

from __future__ import annotations

import dis
import io
import math
import operator
import struct
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..analysis.flowgraph import FlowNode
from ..frontend.ctypes_ import CType, FloatType, IntType, PointerType
from ..frontend.symtab import Symbol
from ..il import nodes as N
from .compiled import (CompiledInterpreter, _CompiledFunction,
                       _FunctionCompiler, _UNSET, _binop_impl,
                       _fast_round_f32, _is_aggregate, _make_loader,
                       _make_storer, _raise_uninit, _struct_format,
                       _unop_impl)
from .events import (expr_events, target_events, vector_ops,
                     write_events)
from .interpreter import (InterpreterError, Value, _trip_values)

#: Attributes on ILFunction holding the cross-instance codegen cache,
#: one per flavour: plain, and counting (for simulation).
_CACHE_ATTR = "_bytecode_cache"
_COUNTED_ATTR = "_bytecode_counted_cache"

#: Flow-node kinds with no observable effect beyond their tick.
_PURE_KINDS = frozenset(("entry", "label", "join", "goto"))

#: Cap on generated source size, mirroring the closure tier's
#: ``_emit_many`` guard.
_SOURCE_LIMIT = 1_000_000


class _Fallback(Exception):
    """Raised during code generation when a construct must run on the
    closure tier instead; the whole function falls back."""


class _CountTable:
    """The event table of one counting function: what each counter
    stands for.

    ``regions[i]`` lists the events one bump of counter ``i`` stands
    for, as ``(kind, detail, loops)`` where ``loops`` holds the sids of
    the sequential DO loops around the event (inside a scheduled one
    the event is counted but not charged).  ``("do_iter", sid)`` and
    ``("do_exit", sid)`` records count iterations and exits of loop
    ``sid`` for its §6 lump charge.  ``vectors[j]`` describes vector
    statement ``j``: ``(region of its length>0 scalar work, regions of
    its cached lane operands, (op, stride) per instruction, reduce
    op)``.  ``unclean`` holds the DO loops whose static suppression
    would not be exact if they were scheduled (calls or control flow
    in the body)."""

    __slots__ = ("regions", "vectors", "unclean")

    def __init__(self, regions, vectors, unclean):
        self.regions = regions
        self.vectors = vectors
        self.unclean = unclean


class _CodegenEntry:
    """One function's generated code plus everything needed to rebind
    it to a different engine instance."""

    __slots__ = ("fn", "source", "code", "recipes", "baked", "mem_limit",
                 "table")

    def __init__(self, fn: N.ILFunction, source: str, code,
                 recipes: Dict[str, tuple],
                 baked: Tuple[Tuple[Symbol, int], ...],
                 mem_limit: int, table: Optional[_CountTable] = None):
        self.fn = fn
        self.source = source
        self.code = code
        self.recipes = recipes
        self.baked = baked
        self.mem_limit = mem_limit
        self.table = table


class _FallbackEntry:
    """Cached decision that a function cannot be code-generated."""

    __slots__ = ("fn", "reason")

    def __init__(self, fn: N.ILFunction, reason: str):
        self.fn = fn
        self.reason = reason


def _make_call_helper(engine, name: str):
    """Call into another IL function or a builtin from generated code.

    Mirrors the oracle's ``_eval_call`` with no hook: arguments are
    already evaluated (Python call-argument order keeps left-to-right),
    a void IL call yields 0."""
    functions_get = engine.program.functions.get
    exec_fn = engine._exec_function
    call_builtin = engine._call_builtin

    def call(*args):
        fn = functions_get(name)
        if fn is not None:
            result = exec_fn(fn, list(args))
            return 0 if result is None else result
        return call_builtin(name, list(args))
    return call


def _make_arg_check(name: str, nparams: int):
    def fail(got: int) -> None:
        raise InterpreterError(
            f"{name} expects {nparams} args, got {got}")
    return fail


def _materialize_recipe(engine, recipe: tuple, counted=None):
    """Rebuild one bound global of a generated function against a
    (possibly different) engine instance; ``counted`` holds a counting
    function's (counts, bump, vec) for this engine."""
    kind = recipe[0]
    if kind == "counts":
        return counted[0]
    if kind == "bump":
        return counted[1]
    if kind == "vec":
        return counted[2]
    if kind == "pure":
        return recipe[1]
    if kind == "data":
        return engine.memory.data
    if kind == "scell":
        return engine._step_cell
    if kind == "engine":
        return engine
    if kind == "memory":
        return engine.memory
    if kind == "hit":
        return engine._hit_limit
    if kind == "loader":
        return _make_loader(engine.memory, recipe[1])
    if kind == "storer":
        return _make_storer(engine.memory, recipe[1])
    if kind == "call":
        return _make_call_helper(engine, recipe[1])
    raise InterpreterError(f"unknown codegen recipe {recipe!r}")


def _ind(lines: Sequence[str]) -> List[str]:
    return ["    " + line for line in lines]


def _ctype_key(ctype: Optional[CType]):
    if ctype is None:
        return None
    return (type(ctype).__name__, ctype.sizeof(),
            getattr(ctype, "signed", None))


def _loop_contexts(fn: N.ILFunction) -> Dict[int, Tuple[int, ...]]:
    """id(stmt) -> sids of the DO loops enclosing it: the cost model
    counts but does not charge events inside a scheduled loop."""
    out: Dict[int, Tuple[int, ...]] = {}

    def walk(stmts: Sequence[N.Stmt], ctx: Tuple[int, ...]) -> None:
        for stmt in stmts:
            out[id(stmt)] = ctx
            inner = ctx + (stmt.sid,) if isinstance(stmt, N.DoLoop) \
                else ctx
            for sub in stmt.substatements():
                walk(sub, inner)

    walk(fn.body, ())
    return out


def _unclean_loops(fn: N.ILFunction) -> Set[int]:
    """DO loops whose body is not straight-line call-free assignments.
    Such a loop, if scheduled, would run callees or goto targets with
    its charges suppressed, which static counts cannot reproduce (the
    §6 scheduler never schedules one)."""
    out: Set[int] = set()
    for stmt in fn.all_statements():
        if not isinstance(stmt, N.DoLoop):
            continue
        if stmt.parallel or stmt.vector or not all(
                isinstance(s, N.Assign) for s in stmt.body) or any(
                isinstance(e, N.CallExpr) for s in stmt.body
                for top in N.stmt_exprs(s) for e in N.walk_expr(top)):
            out.add(stmt.sid)
    return out


def _call_graph(program: N.ILProgram) -> Dict[str, Set[str]]:
    """Function name -> names of the program functions it calls."""
    graph: Dict[str, Set[str]] = {}
    for name, fn in program.functions.items():
        graph[name] = {e.name for stmt in fn.all_statements()
                       for top in N.stmt_exprs(stmt)
                       for e in N.walk_expr(top)
                       if isinstance(e, N.CallExpr)
                       and e.name in program.functions}
    return graph


def _parallel_functions(program: N.ILProgram,
                        calls: Dict[str, Set[str]]) -> Set[str]:
    """Functions that may (transitively) open a parallel region.  A
    call to one is a parallel boundary: the caller's later events
    must be priced after the callee's regions fold."""
    found = {name for name, fn in program.functions.items()
             if any(isinstance(stmt, N.ListParallelLoop)
                    or (isinstance(stmt, N.DoLoop) and stmt.parallel)
                    for stmt in fn.all_statements())}
    changed = True
    while changed:
        changed = False
        for name, callees in calls.items():
            if name not in found and callees & found:
                found.add(name)
                changed = True
    return found


class _BytecodeFunctionCompiler(_FunctionCompiler):
    """Lowers one ILFunction into a single generated Python function.

    Reuses the closure compiler's slot assignment, conversion/load/
    store source generators and expression grammar, overriding the
    frame-indexed pieces to target plain locals and recording a recipe
    for every name bound into the generated namespace so the result
    can be re-materialized on another engine instance.
    """

    def __init__(self, engine: "BytecodeInterpreter", fn: N.ILFunction,
                 counting: bool = False):
        super().__init__(engine, fn)
        # Generated code never bakes a hook: it is shared by engines
        # with different hooks (or none).
        self.hook = None
        self._recipes: Dict[str, tuple] = {}
        self._baked: List[Tuple[Symbol, int]] = []
        self._ncalls = 0
        self._param_regs: Set[int] = set()
        # Definitely-assigned register slots at the current emission
        # point: reads of these skip the _UNSET guard.  Seeded per
        # block from a must-assign dataflow over the block graph.
        self._da: Set[int] = set()
        # Per-statement common-subexpression memo: structural key of a
        # pure expression -> temp name its first (unconditionally
        # evaluated) occurrence walrus-bound.  Reset at each statement
        # emission; inserts are disabled inside lazily-evaluated
        # positions (Select arms, vector lanes).
        self._cse: Dict[tuple, str] = {}
        self._cse_worthy: Set[tuple] = set()
        self._cse_lazy = 0
        # Counting mode (simulation): generated code bumps one counter
        # per straight-line region it enters; the event table says
        # what each counter stands for.  _cur is the open region
        # (None: the next counted event opens one at that point);
        # _ctx the enclosing sequential DO loops; _cuts counts
        # parallel boundaries crossed during generation.
        self._counting = counting
        if counting:
            self._regions: List[List[tuple]] = []
            self._vectors: List[tuple] = []
            self._cur: Optional[int] = None
            self._ctx: Tuple[int, ...] = ()
            self._cuts = 0
            self._clean_call: Optional[N.CallExpr] = None
            self._cache_events: Dict[str, list] = {}
            self._ctx_of = _loop_contexts(fn)
            self._par_fns = engine._parallel_functions()

    # -- counting ----------------------------------------------------------

    def _in_memory(self, sym: Symbol) -> bool:
        return self._binding(sym)[0] != "reg"

    def _events(self, expr: N.Expr) -> list:
        return expr_events(expr, self._in_memory, [])

    def _new_region(self, events: Sequence = ()) -> int:
        ctx = self._ctx
        self._regions.append([(kind, detail, ctx)
                              for kind, detail in events])
        return len(self._regions) - 1

    def _count(self, events: Sequence, lines: List[str],
               ctx: Optional[Tuple[int, ...]] = None) -> None:
        """Add ``events`` to the open region; with none open, open one
        here (its bump is the next line of ``lines``)."""
        if not self._counting or not events:
            return
        if self._cur is None:
            self._cur = self._new_region()
            lines.append(f"_k[{self._cur}] += 1")
        ctx = self._ctx if ctx is None else ctx
        self._regions[self._cur].extend(
            (kind, detail, ctx) for kind, detail in events)

    def _enter_region(self) -> Tuple[Optional[int], int]:
        """Start code that runs a different number of times than its
        surroundings (a loop body, a branch arm); returns the state
        :meth:`_leave_region` restores."""
        if not self._counting:
            return None, 0
        saved = (self._cur, self._cuts)
        self._cur = None
        return saved

    def _leave_region(self, saved: Tuple[Optional[int], int]) -> None:
        # After a parallel boundary inside, later events need a region
        # bumped after it.
        if self._counting:
            self._cur = saved[0] if self._cuts == saved[1] else None

    def _with_clean_call(self, value: N.Expr, gen, *args):
        """Generate with ``value`` allowed to be a call to a parallel
        function: a whole statement's call, whose only later events
        are the statement's own store."""
        self._clean_call = value if isinstance(value, N.CallExpr) \
            else None
        try:
            return gen(*args)
        finally:
            self._clean_call = None

    def _boundary(self) -> None:
        """A parallel boundary was crossed: later events must go to a
        region bumped after it."""
        self._cuts += 1
        self._cur = None

    def _cut(self) -> int:
        """A boundary inside an expression: open the region its
        wrapper bumps; returns its index."""
        self._boundary()
        self._cur = self._new_region()
        return self._cur

    def _node_ctx(self, node: FlowNode) -> Tuple[int, ...]:
        stmt = node.stmt
        ctx = self._ctx_of.get(id(stmt), ()) if stmt is not None else ()
        if node.kind in ("do_cond", "do_step"):
            ctx += (stmt.sid,)
        return ctx

    # -- environment bindings ----------------------------------------------

    def _bind(self, env: Dict[str, object], obj: object) -> str:
        # Default recipe: the object is instance-independent (struct
        # codecs, op kernels, constants, names).  Instance-bound
        # objects go through _bind_recipe instead.
        name = super()._bind(env, obj)
        self._recipes[name] = ("pure", obj)
        return name

    def _bind_recipe(self, env: Dict[str, object], obj: object,
                     recipe: tuple) -> str:
        name = super()._bind(env, obj)
        self._recipes[name] = recipe
        return name

    def _bind_frame_call(self, env: Dict[str, object], fn) -> str:
        # The closure compiler's escape hatch binds a frame-taking
        # closure; generated code has no frame, so anything reaching
        # this point falls back to the closure tier.
        raise _Fallback("closure-only construct")

    def _binding(self, sym: Symbol) -> Tuple[str, int]:
        kind, where = super()._binding(sym)
        if kind == "global":
            # Baked absolute address: recorded so a cached entry is
            # only reused while the address still holds.
            self._baked.append((sym, where))
        return kind, where

    # -- loads/stores (recipe-aware copies of the closure tier's) ----------

    def _gen_load(self, addr_src: str, ctype: CType,
                  env: Dict[str, object],
                  const_addr: Optional[int] = None) -> str:
        memory = self.engine.memory
        fmt = _struct_format(ctype)
        if fmt is None:
            loader = self._bind_recipe(env, _make_loader(memory, ctype),
                                       ("loader", ctype))
            return f"{loader}({addr_src})"
        limit = len(memory.data) - ctype.sizeof()
        unpack = self._bind(env, struct.Struct(fmt).unpack_from)
        data = self._bind_recipe(env, memory.data, ("data",))
        if const_addr is not None and 8 <= const_addr <= limit:
            return f"{unpack}({data}, {const_addr})[0]"
        fault = self._bind_recipe(env, _make_loader(memory, ctype),
                                  ("loader", ctype))
        t = self._tmp_name()
        return (f"({unpack}({data}, {t})[0] "
                f"if 8 <= ({t} := {addr_src}) <= {limit} "
                f"else {fault}({t}))")

    def _gen_store_lines(self, addr_src: str, value_src: str,
                         ctype: CType, env: Dict[str, object],
                         const_addr: Optional[int] = None,
                         float_value: bool = False) -> List[str]:
        """``float_value`` asserts the caller proved ``value_src`` is
        a Python float already (conversion-wrapped sources always
        are), eliding the store's redundant float() coercion."""
        from .compiled import _F32_MAX, FloatType, PointerType
        memory = self.engine.memory
        fmt = _struct_format(ctype)
        if fmt is None:
            store = self._bind_recipe(env, _make_storer(memory, ctype),
                                      ("storer", ctype))
            return [f"{store}({addr_src}, {value_src})"]
        size = ctype.sizeof()
        limit = len(memory.data) - size
        pack = self._bind(env, struct.Struct(fmt).pack_into)
        data = self._bind_recipe(env, memory.data, ("data",))
        v = self._tmp_name()
        lines = [f"{v} = {value_src}"]
        if const_addr is not None and 8 <= const_addr <= limit:
            a = str(const_addr)
        else:
            a = self._tmp_name()
            fault = self._bind_recipe(env, _make_storer(memory, ctype),
                                      ("storer", ctype))
            lines += [f"{a} = {addr_src}",
                      f"if not (8 <= {a} <= {limit}):",
                      f"    {fault}({a}, {v})"]
        if isinstance(ctype, FloatType):
            if size == 4:
                inf = self._bind(env, math.inf)
                ninf = self._bind(env, -math.inf)
                if not float_value:
                    lines.append(f"{v} = float({v})")
                lines += [f"if {v} != 0 and abs({v}) > {_F32_MAX!r}:",
                          f"    {v} = {inf} if {v} > 0 else {ninf}",
                          f"{pack}({data}, {a}, {v})"]
            else:
                value = v if float_value else f"float({v})"
                lines.append(f"{pack}({data}, {a}, {value})")
        elif isinstance(ctype, PointerType):
            lines.append(f"{pack}({data}, {a}, int({v}) & 4294967295)")
        else:
            bits = size * 8
            mask = (1 << bits) - 1
            if ctype.signed:
                half = 1 << (bits - 1)
                lines.append(
                    f"{pack}({data}, {a}, "
                    f"(((int({v}) & {mask}) ^ {half}) - {half}))")
            else:
                lines.append(f"{pack}({data}, {a}, int({v}) & {mask})")
        return lines

    # -- variable access ---------------------------------------------------

    def _gen_var_read(self, sym: Symbol, env: Dict[str, object]) -> str:
        if sym.is_volatile:
            raise _Fallback("volatile read")
        kind, where = self._binding(sym)
        if kind == "reg":
            if where in self._da:
                return f"_r{where}"
            un = self._bind(env, sym.name)
            return (f"(_r{where} if _r{where} is not _U "
                    f"else _ui({un}))")
        if _is_aggregate(sym.ctype):
            raise _Fallback("aggregate scalar read")
        if kind == "mem":
            return self._gen_load(f"_m{where}", sym.ctype, env)
        return self._gen_load(str(where), sym.ctype, env,
                              const_addr=where)

    @staticmethod
    def _same_ctype(a: CType, b: CType) -> bool:
        return (type(a) is type(b) and a.sizeof() == b.sizeof()
                and getattr(a, "signed", None) == getattr(b, "signed",
                                                          None))

    def _conv_matches(self, expr: N.Expr, ctype: CType) -> bool:
        """True when ``_gen(expr)`` already yields a value converted
        to ``ctype`` — the write-side conversion is then idempotent
        and can be skipped (registers hold converted values, loads
        reproduce the exact stored representation, every arithmetic
        kernel converts its result)."""
        if isinstance(expr, N.BinOp):
            if expr.op in self._CMP_OPS:
                # Comparisons yield raw 0/1, invariant under any
                # integer or pointer conversion.
                return isinstance(ctype, (IntType, PointerType))
            if expr.op in self._ARITH_OPS or \
                    expr.op in ("/", "%", "min", "max"):
                return self._same_ctype(expr.ctype, ctype)
            return False
        if isinstance(expr, N.UnOp):
            if expr.op == "not":
                return isinstance(ctype, (IntType, PointerType))
            if expr.op in ("neg", "bnot"):
                return self._same_ctype(expr.ctype, ctype)
            return False
        if isinstance(expr, (N.Cast, N.Select)):
            return self._same_ctype(expr.ctype, ctype)
        if isinstance(expr, N.VarRef):
            sym = expr.sym
            return (not sym.is_volatile
                    and not _is_aggregate(sym.ctype)
                    and self._same_ctype(sym.ctype, ctype))
        if isinstance(expr, N.Mem):
            return (not _is_aggregate(expr.ctype)
                    and self._same_ctype(expr.ctype, ctype))
        return False

    def _gen_write_lines(self, sym: Symbol, value_src: str,
                         env: Dict[str, object],
                         pre_converted: bool = False) -> List[str]:
        """Variable write: the oracle's conversion-then-store order
        (conversion rounds f32 *before* the store-level clamp).
        ``pre_converted`` skips the conversion when the caller proved
        ``value_src`` already carries a ``sym.ctype`` value."""
        if sym.is_volatile:
            raise _Fallback("volatile write")
        kind, where = self._binding(sym)
        if kind == "reg":
            value = value_src if pre_converted \
                else self._gen_conv(value_src, sym.ctype, env)
            self._da.add(where)
            return [f"_r{where} = {value}"]
        if _is_aggregate(sym.ctype):
            raise _Fallback("aggregate scalar write")
        value = value_src if pre_converted \
            else self._gen_conv(value_src, sym.ctype, env)
        # A conversion-wrapped (or proven pre-converted) value for a
        # float symbol is a Python float already.
        is_float = isinstance(sym.ctype, FloatType)
        if kind == "mem":
            return self._gen_store_lines(f"_m{where}", value,
                                         sym.ctype, env,
                                         float_value=is_float)
        return self._gen_store_lines(str(where), value, sym.ctype,
                                     env, const_addr=where,
                                     float_value=is_float)

    # -- expressions -------------------------------------------------------

    def _cse_key(self, expr: N.Expr) -> Optional[tuple]:
        """Structural identity key for a pure, effect-free expression
        (constants, register reads, arithmetic over them), or None
        when sharing would be unsound or unhelpful (loads, calls,
        volatiles).  Register values cannot change mid-statement —
        writes land after every operand is evaluated — so two
        occurrences of the same key within one statement denote the
        same value, and a faulting occurrence faults first in both the
        shared and unshared forms (evaluation is left to right)."""
        if isinstance(expr, N.Const):
            value = expr.value
            return ("c", type(value).__name__, repr(value),
                    _ctype_key(expr.ctype))
        if isinstance(expr, N.VarRef):
            sym = expr.sym
            if sym.is_volatile or _is_aggregate(sym.ctype):
                return None
            if self._binding(sym)[0] != "reg":
                return None  # loads are never shared
            return ("v", id(sym))
        if isinstance(expr, N.BinOp):
            lk = self._cse_key(expr.left)
            rk = self._cse_key(expr.right) if lk is not None else None
            if rk is None:
                return None
            return ("b", expr.op, _ctype_key(expr.ctype), lk, rk)
        if isinstance(expr, N.UnOp):
            ok = self._cse_key(expr.operand)
            if ok is None:
                return None
            return ("u", expr.op, _ctype_key(expr.ctype), ok)
        if isinstance(expr, N.Cast):
            ok = self._cse_key(expr.operand)
            if ok is None:
                return None
            return ("t", _ctype_key(expr.ctype), ok)
        if isinstance(expr, N.Select) and not self._counting:
            ck = self._cse_key(expr.cond)
            tk = self._cse_key(expr.then) if ck is not None else None
            ok = self._cse_key(expr.otherwise) if tk is not None \
                else None
            if ok is None:
                return None
            return ("s", _ctype_key(expr.ctype), ck, tk, ok)
        return None

    def _cse_reset(self, *exprs: Optional[N.Expr]) -> None:
        """Start a new CSE scope for one statement: clear the memo and
        prescan the statement's expressions so only subexpressions
        that actually occur twice get a walrus binding (a binding with
        no reuse is a dead store).  The scan short-circuits repeated
        subtrees exactly like generation will, so nested occurrences
        under a shared parent are not double-counted."""
        self._cse.clear()
        counts: Dict[tuple, int] = {}
        stack = [e for e in exprs if e is not None]
        while stack:
            e = stack.pop()
            if isinstance(e, (N.BinOp, N.UnOp, N.Cast, N.Select)):
                key = self._cse_key(e)
                if key is not None:
                    n = counts.get(key, 0) + 1
                    counts[key] = n
                    if n > 1:
                        continue  # generation reuses the shared temp
            if isinstance(e, N.BinOp):
                stack += (e.left, e.right)
            elif isinstance(e, (N.UnOp, N.Cast)):
                stack.append(e.operand)
            elif isinstance(e, N.Select):
                stack += (e.cond, e.then, e.otherwise)
            elif isinstance(e, N.Mem):
                stack.append(e.addr)
            elif isinstance(e, N.Section):
                stack += (e.addr, e.length)
            elif isinstance(e, N.Iota):
                stack.append(e.start)
            elif isinstance(e, N.CallExpr):
                stack.extend(e.args)
        self._cse_worthy = {k for k, n in counts.items() if n >= 2}

    def _gen(self, expr: N.Expr, env: Dict[str, object]) -> str:
        # Within-statement CSE: the first occurrence of a repeated
        # pure subexpression walrus-binds a temp, later occurrences
        # reuse it.  The memo is cleared at every statement boundary;
        # inserts are suppressed in lazily-evaluated positions
        # (Select arms, vector lanes) where the binding might not
        # execute before a reuse would read it.
        key = self._cse_key(expr)
        if key is not None:
            hit = self._cse.get(key)
            if hit is not None:
                return hit
        src = self._gen_inner(expr, env)
        if key is not None and self._cse_lazy == 0 and \
                key in self._cse_worthy and \
                isinstance(expr, (N.BinOp, N.UnOp, N.Cast, N.Select)):
            name = self._tmp_name()
            self._cse[key] = name
            return f"({name} := {src})"
        return src

    def _gen_inner(self, expr: N.Expr, env: Dict[str, object]) -> str:
        if isinstance(expr, N.AddrOf):
            sym = expr.sym
            slot = self._mem_slots.get(sym)
            if slot is not None:
                return f"_m{slot}"
            memory = self.engine.memory
            if memory.has_storage(sym):
                addr = memory.address_of(sym)
                self._baked.append((sym, addr))
                return f"({addr})"
            # Lazy allocation of address-taken storage mutates engine
            # state mid-run: closure tier only.
            raise _Fallback("address of lazily-allocated symbol")
        if isinstance(expr, N.CallExpr):
            self._ncalls += 1
            boundary = self._counting and expr.name in self._par_fns
            if boundary:
                if expr is not self._clean_call:
                    raise _Fallback("call to a parallel function "
                                    "inside an expression")
                self._clean_call = None
            helper = self._bind_recipe(
                env, _make_call_helper(self.engine, expr.name),
                ("call", expr.name))
            args = ", ".join(f"({self._gen(a, env)})" for a in expr.args)
            if boundary:
                return f"_kb({helper}({args}), {self._cut()})"
            return f"{helper}({args})"
        if isinstance(expr, (N.Section, N.Iota)):
            raise _Fallback("vector expression in scalar context")
        if isinstance(expr, N.Mem) and not _is_aggregate(expr.ctype):
            # Known-int addresses skip the closure tier's int() wrap.
            addr = self._gen_int(expr.addr, env)
            return self._gen_load(addr, expr.ctype, env)
        if isinstance(expr, N.BinOp) and expr.op in ("+", "-", "*") \
                and isinstance(expr.ctype, FloatType) \
                and (self._float_valued(expr.left)
                     or self._float_valued(expr.right)):
            # One float operand makes the Python result a float, so
            # the conversion's float() coercion is the identity.
            left = self._gen(expr.left, env)
            right = self._gen(expr.right, env)
            raw = f"(({left}) {expr.op} ({right}))"
            if expr.ctype.sizeof() != 4:
                return raw
            from .compiled import _F32_MAX, _F32_PACK, _F32_UNPACK
            pk = self._bind(env, _F32_PACK)
            up = self._bind(env, _F32_UNPACK)
            t = self._tmp_name()
            return (f"({up}({pk}({t}))[0] if "
                    f"-{_F32_MAX!r} <= ({t} := {raw}) "
                    f"<= {_F32_MAX!r} else _f32({t}))")
        if isinstance(expr, N.BinOp) and expr.op in ("+", "-", "*") \
                and isinstance(expr.ctype, (IntType, PointerType)) \
                and self._int_valued(expr.left) \
                and self._int_valued(expr.right):
            # Both operands are Python ints already: the conversion's
            # int() is the identity, so emit the mask math directly.
            left = self._gen(expr.left, env)
            right = self._gen(expr.right, env)
            raw = f"(({left}) {expr.op} ({right}))"
            if isinstance(expr.ctype, PointerType):
                return f"({raw} & 4294967295)"
            bits = expr.ctype.sizeof() * 8
            mask = (1 << bits) - 1
            if expr.ctype.signed:
                half = 1 << (bits - 1)
                return f"((({raw} & {mask}) ^ {half}) - {half})"
            return f"({raw} & {mask})"
        if isinstance(expr, N.Select):
            # Select arms evaluate lazily: no CSE inserts inside.
            self._cse_lazy += 1
            try:
                if not self._counting:
                    return super()._gen(expr, env)
                cond = self._gen(expr.cond, env)
                then = self._gen_arm(expr.then, env)
                other = self._gen_arm(expr.otherwise, env)
            finally:
                self._cse_lazy -= 1
            return self._gen_conv(
                f"(({then}) if ({cond}) else ({other}))",
                expr.ctype, env)
        return super()._gen(expr, env)

    def _gen_arm(self, expr: N.Expr, env: Dict[str, object]) -> str:
        """One lazy Select arm in counting mode: its events get their
        own counter, bumped only when the arm is chosen."""
        events = self._events(expr)
        src = self._gen(expr, env)
        if not events:
            return src
        return f"_kb({src}, {self._new_region(events)})"

    def _guarded_src(self, expr: N.Expr, env: Dict[str, object],
                     lines: List[str]) -> str:
        """Expression source; if it can re-enter the engine (calls),
        evaluate it into a temp with the step cell flushed before and
        reloaded after, so callees observe exact counts."""
        self._cse_reset(expr)
        before = self._ncalls
        src = self._gen(expr, env)
        if self._ncalls == before:
            return src
        t = self._tmp_name()
        lines += ["_sc[0] = count", f"{t} = {src}", "count = _sc[0]"]
        return t

    def _guarded_assign(self, expr: N.Expr, env: Dict[str, object],
                        lines: List[str], target: str) -> None:
        self._cse_reset(expr)
        before = self._ncalls
        src = self._gen(expr, env)
        if self._ncalls == before:
            lines.append(f"{target} = {src}")
        else:
            lines += ["_sc[0] = count", f"{target} = {src}",
                      "count = _sc[0]"]

    def _gen_bool(self, expr: N.Expr, env: Dict[str, object]) -> str:
        """Branch-condition source: a top-level comparison skips the
        oracle-visible 0/1 wrap — the truth value is identical."""
        if isinstance(expr, N.BinOp) and expr.op in self._CMP_OPS:
            left = self._gen(expr.left, env)
            right = self._gen(expr.right, env)
            return f"(({left}) {expr.op} ({right}))"
        return self._gen(expr, env)

    def _guarded_bool_src(self, expr: N.Expr, env: Dict[str, object],
                          lines: List[str]) -> str:
        self._cse_reset(expr)
        before = self._ncalls
        src = self._gen_bool(expr, env)
        if self._ncalls == before:
            return src
        t = self._tmp_name()
        lines += ["_sc[0] = count", f"{t} = {src}", "count = _sc[0]"]
        return t

    def _expr_nofault(self, expr: N.Expr) -> bool:
        """True when evaluating ``expr`` can raise nothing: no loads,
        no calls, no div/mod, every register read definitely assigned.
        Ticks for register-only assigns of such values may ride to the
        next limit check — aborting a few nodes early on the limit
        path is unobservable because register state dies with the
        frame and the step cell lands at max_steps + 1 either way."""
        if isinstance(expr, N.Const):
            return True
        if isinstance(expr, N.VarRef):
            sym = expr.sym
            if sym.is_volatile or _is_aggregate(sym.ctype):
                return False
            kind, where = self._binding(sym)
            return kind == "reg" and where in self._da
        if isinstance(expr, N.BinOp):
            if expr.op in ("/", "%"):
                return False
            if expr.op not in self._CMP_OPS and \
                    expr.op not in self._ARITH_OPS and \
                    expr.op not in ("min", "max"):
                return False
            return self._expr_nofault(expr.left) and \
                self._expr_nofault(expr.right)
        if isinstance(expr, N.UnOp):
            return expr.op in ("neg", "not", "bnot") and \
                self._expr_nofault(expr.operand)
        if isinstance(expr, N.Cast):
            return self._expr_nofault(expr.operand)
        if isinstance(expr, N.Select):
            return (self._expr_nofault(expr.cond)
                    and self._expr_nofault(expr.then)
                    and self._expr_nofault(expr.otherwise))
        return False

    def _is_fusible_assign(self, stmt: N.Stmt) -> bool:
        """A register-only assign whose evaluation cannot fault: its
        tick may batch with the following nodes' ticks."""
        if not isinstance(stmt, N.Assign):
            return False
        target = stmt.target
        if not isinstance(target, N.VarRef):
            return False
        sym = target.sym
        if sym.is_volatile or _is_aggregate(sym.ctype):
            return False
        kind, _ = self._binding(sym)
        return kind == "reg" and self._expr_nofault(stmt.value)

    # -- leaf statements ---------------------------------------------------

    def _int_valued(self, expr: N.Expr) -> bool:
        """True when the generated source is guaranteed to be a Python
        int already: converted integer/pointer arithmetic, integer
        register reads and loads, comparisons.  Lets address contexts
        skip a redundant ``int()`` wrap."""
        if isinstance(expr, (N.BinOp, N.UnOp, N.Cast)):
            return isinstance(expr.ctype, (IntType, PointerType))
        if isinstance(expr, N.VarRef):
            sym = expr.sym
            return (not sym.is_volatile
                    and not _is_aggregate(sym.ctype)
                    and isinstance(sym.ctype, (IntType, PointerType)))
        if isinstance(expr, N.Const):
            return isinstance(expr.value, int)
        return False

    def _gen_int(self, expr: N.Expr, env: Dict[str, object]) -> str:
        src = self._gen(expr, env)
        if self._int_valued(expr):
            return f"({src})"
        return f"int({src})"

    def _float_valued(self, expr: N.Expr) -> bool:
        """True when the generated source is guaranteed to be a Python
        float: float-typed arithmetic (the conversion wraps it), float
        register reads and loads, float constants."""
        if isinstance(expr, N.BinOp):
            return (isinstance(expr.ctype, FloatType)
                    and expr.op not in self._CMP_OPS)
        if isinstance(expr, (N.Cast, N.Select)):
            return isinstance(expr.ctype, FloatType)
        if isinstance(expr, N.UnOp):
            return (isinstance(expr.ctype, FloatType)
                    and expr.op != "not")
        if isinstance(expr, N.VarRef):
            sym = expr.sym
            return (not sym.is_volatile
                    and not _is_aggregate(sym.ctype)
                    and isinstance(sym.ctype, FloatType))
        if isinstance(expr, N.Mem):
            return (not _is_aggregate(expr.ctype)
                    and isinstance(expr.ctype, FloatType))
        if isinstance(expr, N.Const):
            return isinstance(expr.value, float)
        return False

    def _gen_assign_stmt_lines(self, stmt: N.Assign,
                               env: Dict[str, object]) -> List[str]:
        target = stmt.target
        if isinstance(target, N.VarRef):
            sym = target.sym
            return self._gen_write_lines(
                sym, f"({self._gen(stmt.value, env)})", env,
                pre_converted=self._conv_matches(stmt.value, sym.ctype))
        if isinstance(target, N.Mem):
            if _is_aggregate(target.ctype):
                raise _Fallback("aggregate store")
            # Value before address — the oracle's evaluation order
            # (store lines land the value in a temp first).
            value = self._gen(stmt.value, env)
            addr = self._gen_int(target.addr, env)
            return self._gen_store_lines(
                addr, value, target.ctype, env,
                float_value=self._float_valued(stmt.value))
        raise _Fallback("bad assign target")

    def _emit_leaf(self, stmt: N.Stmt, env: Dict[str, object],
                   lines: List[str]) -> None:
        if isinstance(stmt, N.Assign):
            target = stmt.target
            self._cse_reset(stmt.value,
                            target.addr if isinstance(target, N.Mem)
                            else None)
        elif isinstance(stmt, N.VectorAssign):
            self._cse_reset(stmt.mask, stmt.value, stmt.target.addr,
                            stmt.target.length)
        elif isinstance(stmt, N.VectorReduce):
            self._cse_reset(stmt.value, stmt.length)
        before = self._ncalls
        if isinstance(stmt, N.Assign):
            if not self._counting:
                sub = self._gen_assign_stmt_lines(stmt, env)
            else:
                # The value's events come before a call in it; the
                # target's after (after a parallel boundary, in the
                # call's post-boundary region).
                self._count(self._events(stmt.value), lines)
                sub = self._with_clean_call(
                    stmt.value, self._gen_assign_stmt_lines, stmt, env)
                self._count(target_events(stmt.target, self._in_memory),
                            lines)
        elif isinstance(stmt, N.VectorAssign):
            if self._counting:
                self._count(self._events(stmt.target.length), lines)
            sub = self._gen_vector_assign_lines(stmt, env)
        elif isinstance(stmt, N.VectorReduce):
            if self._counting:
                sym = stmt.target.sym
                events = self._events(stmt.length)
                if self._in_memory(sym):
                    events += [("load", sym.ctype), ("store", sym.ctype)]
                self._count(events, lines)
            sub = self._gen_vector_reduce_lines(stmt, env)
        else:
            raise _Fallback(f"leaf statement {type(stmt).__name__}")
        if self._ncalls != before:
            lines.append("_sc[0] = count")
            lines.extend(sub)
            lines.append("count = _sc[0]")
        else:
            lines.extend(sub)

    def _emit_call_stmt(self, stmt: N.CallStmt, env: Dict[str, object],
                        lines: List[str]) -> None:
        self._cse_reset(stmt.call)
        if self._counting:
            self._count(self._events(stmt.call), lines)
            src = self._with_clean_call(stmt.call, self._gen, stmt.call,
                                        env)
        else:
            src = self._gen(stmt.call, env)
        lines += ["_sc[0] = count", src, "count = _sc[0]"]

    # -- vector statements -------------------------------------------------

    def _cache_name(self, caches: List[str], expr: N.Expr) -> str:
        """A per-statement cache for ``expr``, evaluated at most once
        (on the first lane that needs it)."""
        name = self._tmp_name()
        caches.append(name)
        if self._counting:
            self._cache_events[name] = self._events(expr)
        return name

    def _vec_call(self, caches: List[str], length: str,
                  pos_events: list, ops, reduce_op) -> str:
        """Counting mode: the one call a vector statement makes, with
        its runtime length and the caches its lanes filled."""
        counted = [c for c in caches if self._cache_events[c]]
        regions = tuple(self._new_region(self._cache_events[c])
                        for c in counted)
        pos = self._new_region(pos_events) if pos_events else None
        self._vectors.append((pos, regions, ops, reduce_op))
        args = "".join(f", {c}" for c in counted)
        return f"_vec({len(self._vectors) - 1}, {length}{args})"

    def _gen_vector_elem_src(self, expr: N.Expr, env: Dict[str, object],
                             caches: List[str], idx: str) -> str:
        """Per-lane element source, mirroring the closure tier's
        ``_compile_vector_elem``: Section bases, Iota starts and
        broadcast scalars are cached per statement execution (walrus
        into a ``None``-initialized local); Select stays lazy per
        lane.  Everything here lands in a comprehension or a lazy
        cache branch, so CSE inserts are suppressed throughout."""
        self._cse_lazy += 1
        try:
            return self._gen_vector_elem_inner(expr, env, caches, idx)
        finally:
            self._cse_lazy -= 1

    def _gen_vector_elem_inner(self, expr: N.Expr,
                               env: Dict[str, object],
                               caches: List[str], idx: str) -> str:
        if isinstance(expr, N.Section):
            if _is_aggregate(expr.ctype):
                raise _Fallback("aggregate section")
            c = self._cache_name(caches, expr.addr)
            addr = f"int({self._gen(expr.addr, env)})"
            base = f"({c} if {c} is not None else ({c} := {addr}))"
            step = expr.stride * expr.ctype.sizeof()
            return self._gen_load(f"({base} + {idx} * {step})",
                                  expr.ctype, env)
        if isinstance(expr, N.BinOp):
            left = self._gen_vector_elem_src(expr.left, env, caches, idx)
            right = self._gen_vector_elem_src(expr.right, env, caches,
                                              idx)
            impl = self._bind(env, _binop_impl(expr.op, expr.ctype))
            return f"{impl}(({left}), ({right}))"
        if isinstance(expr, N.UnOp):
            operand = self._gen_vector_elem_src(expr.operand, env,
                                                caches, idx)
            impl = self._bind(env, _unop_impl(expr.op, expr.ctype))
            return f"{impl}(({operand}))"
        if isinstance(expr, N.Cast):
            operand = self._gen_vector_elem_src(expr.operand, env,
                                                caches, idx)
            return self._gen_conv(f"({operand})", expr.ctype, env)
        if isinstance(expr, N.Select):
            cond = self._gen_vector_elem_src(expr.cond, env, caches, idx)
            then = self._gen_vector_elem_src(expr.then, env, caches, idx)
            other = self._gen_vector_elem_src(expr.otherwise, env,
                                              caches, idx)
            return self._gen_conv(
                f"(({then}) if ({cond}) else ({other}))",
                expr.ctype, env)
        if isinstance(expr, N.Iota):
            c = self._cache_name(caches, expr.start)
            start = f"int({self._gen(expr.start, env)})"
            return (f"(({c} if {c} is not None else ({c} := {start}))"
                    f" + {idx})")
        # Scalars (including Mem) broadcast: evaluated once, cached.
        c = self._cache_name(caches, expr)
        scalar = self._gen(expr, env)
        return f"({c} if {c} is not None else ({c} := ({scalar})))"

    def _gen_vector_assign_lines(self, stmt: N.VectorAssign,
                                 env: Dict[str, object]) -> List[str]:
        target = stmt.target
        ctype = target.ctype
        if _is_aggregate(ctype):
            raise _Fallback("aggregate vector target")
        lines: List[str] = []
        tl = self._tmp_name()
        lines.append(f"{tl} = int({self._gen(target.length, env)})")
        caches: List[str] = []
        idx = self._tmp_name()
        # Mask generated (and at runtime evaluated) before the value,
        # matching the oracle: every lane's mask first, then values
        # for the active lanes only.
        mask_src = None
        if stmt.mask is not None:
            mask_src = self._gen_vector_elem_src(stmt.mask, env, caches,
                                                 idx)
        value_src = self._gen_vector_elem_src(stmt.value, env, caches,
                                              idx)
        addr_src = f"int({self._gen(target.addr, env)})"
        stride_bytes = target.stride * ctype.sizeof()
        body: List[str] = [f"{c} = None" for c in caches]
        tv = self._tmp_name()
        tb = self._tmp_name()
        if mask_src is None:
            body.append(f"{tv} = [{value_src} for {idx} in "
                        f"range({tl})]")
            body.append(f"{tb} = {addr_src}")
            tx = self._tmp_name()
            body.append(f"for {tx} in {tv}:")
            body.extend(_ind(self._gen_store_lines(tb, tx, ctype, env)))
            body.append(f"    {tb} += {stride_bytes}")
        else:
            tm = self._tmp_name()
            body.append(f"{tm} = [{mask_src} for {idx} in range({tl})]")
            body.append(f"{tv} = [({value_src}) if {tm}[{idx}] "
                        f"else None for {idx} in range({tl})]")
            body.append(f"{tb} = {addr_src}")
            body.append(f"for {idx} in range({tl}):")
            store = self._gen_store_lines(
                f"({tb} + {idx} * {stride_bytes})", f"{tv}[{idx}]",
                ctype, env)
            body.append(f"    if {tm}[{idx}]:")
            body.extend(_ind(_ind(store)))
        if self._counting:
            body.append(self._vec_call(
                caches, tl, self._events(target.addr),
                tuple(vector_ops(stmt)), None))
        lines.append(f"if {tl} > 0:")
        lines.extend(_ind(body))
        return lines

    def _gen_vector_reduce_lines(self, stmt: N.VectorReduce,
                                 env: Dict[str, object]) -> List[str]:
        sym = stmt.target.sym
        lines: List[str] = []
        tl = self._tmp_name()
        # Length first, then the accumulator read — oracle order.
        lines.append(f"{tl} = int({self._gen(stmt.length, env)})")
        ta = self._tmp_name()
        lines.append(f"{ta} = {self._gen_var_read(sym, env)}")
        caches: List[str] = []
        idx = self._tmp_name()
        elem = self._gen_vector_elem_src(stmt.value, env, caches, idx)
        impl = self._bind(env, _binop_impl(stmt.op, stmt.target.ctype))
        body = [f"{c} = None" for c in caches]
        body.append(f"for {idx} in range({tl}):")
        body.append(f"    {ta} = {impl}({ta}, ({elem}))")
        if self._counting:
            body.append(self._vec_call(caches, tl, [], (), stmt.op))
        lines.append(f"if {tl} > 0:")
        lines.extend(_ind(body))
        # ta is either the (converted) initial read or a kernel
        # result, which also converts — the write conversion is
        # idempotent when the types line up.
        lines.extend(self._gen_write_lines(
            sym, ta, env,
            pre_converted=self._same_ctype(stmt.target.ctype,
                                           sym.ctype)
            and not sym.is_volatile))
        return lines

    # -- structured statements (parallel/vector loop bodies) ---------------

    def _gen_stmt_list_lines(self, stmts: Sequence[N.Stmt],
                             env: Dict[str, object]) -> List[str]:
        """One tick per statement, exactly like the oracle's
        ``_exec_stmt_list``."""
        lines: List[str] = []
        for stmt in stmts:
            lines.append("count += 1")
            lines.append("if count > _ms: _hit(_ms + 1)")
            if isinstance(stmt, (N.Assign, N.VectorAssign,
                                 N.VectorReduce)):
                self._emit_leaf(stmt, env, lines)
            elif isinstance(stmt, N.CallStmt):
                self._emit_call_stmt(stmt, env, lines)
            elif isinstance(stmt, N.IfStmt):
                if self._counting:
                    self._count(self._events(stmt.cond), lines)
                src = self._guarded_bool_src(stmt.cond, env, lines)
                da0 = set(self._da)
                lines.append(f"if {src}:")
                saved = self._enter_region()
                then = self._gen_stmt_list_lines(stmt.then, env)
                lines.extend(_ind(then or ["pass"]))
                da_then = self._da
                if stmt.otherwise:
                    self._da = set(da0)
                    self._cur = None
                    lines.append("else:")
                    lines.extend(_ind(
                        self._gen_stmt_list_lines(stmt.otherwise, env)))
                    self._da = da_then & self._da
                else:
                    self._da = da0
                self._leave_region(saved)
                # The oracle charges the branch after the chosen arm.
                self._count([("branch", None)], lines)
            elif isinstance(stmt, N.WhileLoop):
                lines.append("while True:")
                sub: List[str] = []
                saved = self._enter_region()
                if self._counting:
                    self._count(self._events(stmt.cond), sub)
                csrc = self._guarded_bool_src(stmt.cond, env, sub)
                sub.append(f"if not ({csrc}): break")
                sub.append("count += 1")
                sub.append("if count > _ms: _hit(_ms + 1)")
                self._cur = None
                da0 = set(self._da)
                sub.extend(self._gen_stmt_list_lines(stmt.body, env))
                self._da = da0  # body may run zero times
                self._leave_region(saved)
                lines.extend(_ind(sub))
            elif isinstance(stmt, N.DoLoop):
                # Nested DO loops run serially inside a parallel body,
                # parallel/vector flags included — like the oracle.
                outer = self._ctx
                if self._counting:
                    self._count(self._events(stmt.lo)
                                + self._events(stmt.hi)
                                + [("do_exit", stmt.sid)], lines)
                tlo = self._tmp_name()
                self._guarded_assign(stmt.lo, env, lines, tlo)
                hi = self._guarded_src(stmt.hi, env, lines)
                tvs = self._bind(env, _trip_values)
                it = self._tmp_name()
                lines.append(f"for {it} in {tvs}({tlo}, ({hi}), "
                             f"{stmt.step!r}):")
                sub = ["count += 1", "if count > _ms: _hit(_ms + 1)"]
                saved = self._enter_region()
                if self._counting:
                    self._ctx = outer + (stmt.sid,)
                    self._count(write_events(stmt.var, self._in_memory),
                                sub)
                da0 = set(self._da)
                sub.extend(self._gen_write_lines(stmt.var, it, env))
                sub.extend(self._gen_stmt_list_lines(stmt.body, env))
                self._da = da0  # zero-trip loops write nothing
                if self._counting:
                    self._count([("branch", None)], sub)
                    self._count([("do_iter", stmt.sid)], sub, ctx=outer)
                    self._ctx = outer
                self._leave_region(saved)
                lines.extend(_ind(sub))
            else:
                # The oracle rejects these at runtime; let the closure
                # tier raise its exact message.
                raise _Fallback(
                    f"{type(stmt).__name__} in structured body")
        return lines

    def _emit_special_loop(self, stmt: N.DoLoop, env: Dict[str, object],
                           lines: List[str]) -> None:
        """Parallel (or vector) DoLoop executed as one flow node,
        mirroring the oracle's ``_exec_special_loop``."""
        if self._counting:
            self._count(self._events(stmt.lo) + self._events(stmt.hi),
                        lines)
        tlo = self._tmp_name()
        self._guarded_assign(stmt.lo, env, lines, tlo)
        hi = self._guarded_src(stmt.hi, env, lines)
        tvs = self._bind(env, _trip_values)
        tr = self._tmp_name()
        lines.append(f"{tr} = {tvs}({tlo}, ({hi}), {stmt.step!r})")
        if stmt.parallel:
            # Iteration order is an engine-instance knob read at run
            # time (never baked): reverse/shuffle reorders trips.
            to = self._tmp_name()
            lines += [f"{to} = _eng.parallel_order",
                      f"if {to} == 'reverse':",
                      f"    {tr} = list(reversed({tr}))",
                      f"elif {to} == 'shuffle':",
                      f"    {tr} = list({tr})",
                      f"    _eng._rng.shuffle({tr})"]
            if self._counting:
                lines.append(
                    f"_eng.cost_hook('parallel_begin', {stmt.sid})")
        it = self._tmp_name()
        lines.append(f"for {it} in {tr}:")
        da0 = set(self._da)
        saved = self._enter_region()
        body: List[str] = []
        if self._counting:
            self._count(write_events(stmt.var, self._in_memory), body)
        body.extend(self._gen_write_lines(stmt.var, it, env))
        body.extend(self._gen_stmt_list_lines(stmt.body, env))
        self._da = da0  # per-trip writes are conditional on trips
        self._leave_region(saved)
        lines.extend(_ind(body))
        if self._counting:
            if stmt.parallel:
                lines.append(f"_eng.cost_hook('parallel_end', "
                             f"{stmt.sid}, len({tr}))")
                self._boundary()
            self._count(write_events(stmt.var, self._in_memory), lines)
        # The trailing write is unconditional (so the loop variable IS
        # definitely assigned downstream).
        lines.extend(self._gen_write_lines(
            stmt.var, f"({tr}[-1] + {stmt.step!r} if {tr} else {tlo})",
            env))

    # -- flow lowering -----------------------------------------------------

    def _reachable(self, graph) -> Set[FlowNode]:
        """Nodes reachable under special-loop short-circuit: a
        parallel/vector DoLoop executes as one node, so its do_cond/
        do_step/body machinery is dead unless a goto jumps into the
        body (in which case the oracle runs those nodes scalar-style,
        and so do we)."""
        exit_node = graph.exit
        reach: Set[FlowNode] = set()
        worklist = [graph.entry]
        while worklist:
            node = worklist.pop()
            if node is None or node is exit_node or node in reach:
                continue
            reach.add(node)
            if node.kind == "do_init" and \
                    (node.stmt.parallel or node.stmt.vector):
                worklist.append(node.succs[0].false_succ)
            else:
                worklist.extend(node.succs)
        return reach

    def _reg_slot(self, sym: Symbol) -> Optional[int]:
        if sym.is_volatile:
            return None
        kind, where = self._binding(sym)
        return where if kind == "reg" else None

    def _block_effects(self, head: FlowNode,
                       pc_of: Dict[FlowNode, int],
                       exit_node: FlowNode
                       ) -> Tuple[Set[int], List[FlowNode]]:
        """(definitely-written register slots, successor heads) of one
        block — the transfer function for the must-assign dataflow.
        Mirrors :meth:`_gen_block`'s node walk; writes inside
        structured loop bodies are conditional and excluded."""
        writes: Set[int] = set()
        succs: List[FlowNode] = []
        node: Optional[FlowNode] = head
        first = True
        while True:
            if node is None or node is exit_node:
                return writes, succs
            if not first and node in pc_of:
                succs.append(node)
                return writes, succs
            first = False
            kind = node.kind
            if kind == "assign":
                stmt = node.stmt
                target = getattr(stmt, "target", None)
                if isinstance(stmt, N.Assign) and \
                        isinstance(target, N.VarRef):
                    slot = self._reg_slot(target.sym)
                    if slot is not None:
                        writes.add(slot)
                elif isinstance(stmt, N.VectorReduce):
                    slot = self._reg_slot(stmt.target.sym)
                    if slot is not None:
                        writes.add(slot)
            elif kind in ("cond", "do_cond"):
                for succ in (node.true_succ, node.false_succ):
                    if succ is not None and succ is not exit_node:
                        succs.append(succ)
                return writes, succs
            elif kind == "do_init":
                stmt = node.stmt
                slot = self._reg_slot(stmt.var)
                if slot is not None:
                    writes.add(slot)
                if stmt.parallel or stmt.vector:
                    node = node.succs[0].false_succ
                    continue
            elif kind == "do_step":
                slot = self._reg_slot(node.stmt.var)
                if slot is not None:
                    writes.add(slot)
            elif kind == "return":
                return writes, succs
            elif kind not in _PURE_KINDS and kind != "call":
                return writes, succs  # emission will fall back
            node = node.succs[0] if node.succs else None

    def _compute_da(self, heads: List[FlowNode],
                    pc_of: Dict[FlowNode, int],
                    exit_node: FlowNode) -> Dict[FlowNode, Set[int]]:
        """Forward must-assign dataflow over the block graph: which
        register slots are definitely assigned at each block entry.
        Seeds the entry block with the parameter registers."""
        effects = {h: self._block_effects(h, pc_of, exit_node)
                   for h in heads}
        entry_in: Set[int] = set()
        for sym in self.fn.params:
            slot = self._reg_slot(sym)
            if slot is not None:
                entry_in.add(slot)
        ins: Dict[FlowNode, Set[int]] = {heads[0]: entry_in}
        work = [heads[0]]
        while work:
            head = work.pop()
            writes, succs = effects[head]
            out = ins[head] | writes
            for succ in succs:
                cur = ins.get(succ)
                if cur is None:
                    ins[succ] = set(out)
                    work.append(succ)
                else:
                    new = cur & out
                    if new != cur:
                        ins[succ] = new
                        work.append(succ)
        return ins

    def _block_terminal(self, head: FlowNode,
                        head_set: Dict[FlowNode, int],
                        exit_node: FlowNode
                        ) -> Optional[Tuple[str, FlowNode]]:
        """How the block starting at ``head`` ends: ("branch", cond)
        for a two-way branch, ("jump", target) for a fallthrough into
        another block head, None for a return/exit."""
        node: Optional[FlowNode] = head
        first = True
        while True:
            if node is None or node is exit_node:
                return None
            if not first and node in head_set:
                return ("jump", node)
            first = False
            kind = node.kind
            if kind in ("cond", "do_cond"):
                return ("branch", node)
            if kind == "return":
                return None
            if kind == "do_init" and (node.stmt.parallel
                                      or node.stmt.vector):
                node = node.succs[0].false_succ
                continue
            if kind in _PURE_KINDS or kind in ("assign", "call",
                                               "do_init", "do_step"):
                node = node.succs[0] if node.succs else None
                continue
            return None  # emission will fall back anyway

    def _find_loops(self, heads: List[FlowNode],
                    head_set: Dict[FlowNode, int],
                    exit_node: FlowNode,
                    effects) -> Dict[FlowNode, tuple]:
        """Single-body natural loops: a header block ending in a
        branch whose one arm is a body block B with no other
        predecessors that unconditionally jumps back to the header.
        Such a pair compiles to a native ``while True`` inside the
        header's dispatch arm, removing the per-iteration dispatch."""
        preds_ct: Dict[FlowNode, int] = {}
        for h in heads:
            for s in effects[h][1]:
                preds_ct[s] = preds_ct.get(s, 0) + 1
        loops: Dict[FlowNode, tuple] = {}
        absorbed: Set[FlowNode] = set()
        for h in heads:
            term = self._block_terminal(h, head_set, exit_node)
            if term is None or term[0] != "branch":
                continue
            cond = term[1]
            for body, ext, on_true in (
                    (cond.true_succ, cond.false_succ, True),
                    (cond.false_succ, cond.true_succ, False)):
                if body is None or body is exit_node or \
                        body not in head_set:
                    continue
                if body is h or body is heads[0] or ext is body or \
                        body in absorbed:
                    continue
                if preds_ct.get(body, 0) != 1:
                    continue
                b_term = self._block_terminal(body, head_set,
                                              exit_node)
                if b_term is not None and b_term[0] == "jump" and \
                        b_term[1] is h and effects[body][1] == [h]:
                    loops[h] = (body, ext, on_true)
                    absorbed.add(body)
                    break
        return loops

    def _gen_loop_block(self, head: FlowNode, loop: tuple,
                        env: Dict[str, object],
                        head_set: Dict[FlowNode, int],
                        pc_of: Dict[FlowNode, int],
                        exit_node: FlowNode, da_ins) -> List[str]:
        body, ext, on_true = loop
        inner = self._gen_block(head, env, head_set, pc_of, exit_node,
                                da_ins.get(head, set()),
                                loop_break=loop)
        inner.extend(self._gen_block(body, env, head_set, pc_of,
                                     exit_node,
                                     da_ins.get(body, set()),
                                     loop_continue=head))
        lines = ["while True:"] + _ind(inner)
        lines.extend(self._jump_lines(ext, pc_of, exit_node))
        return lines

    def _gen_flow(self, env: Dict[str, object]) -> List[str]:
        graph = self.engine._graph(self.fn)
        exit_node = graph.exit
        entry = graph.entry
        reach = self._reachable(graph)
        heads = []
        for node in graph.nodes:
            if node is exit_node or node not in reach:
                continue
            # Block heads: the entry, merge points, and branch
            # targets.  Everything else has a unique non-branching
            # predecessor and is inlined into its block.
            if node is entry or len(node.preds) != 1 or \
                    node.preds[0].kind in ("cond", "do_cond"):
                heads.append(node)
        heads.sort(key=lambda n: n is not entry)  # stable: entry first
        head_set = {node: pc for pc, node in enumerate(heads)}
        da_ins = self._compute_da(heads, head_set, exit_node)
        effects = {h: self._block_effects(h, head_set, exit_node)
                   for h in heads}
        loops = self._find_loops(heads, head_set, exit_node, effects)
        absorbed = {body for body, _, _ in loops.values()}
        arm_heads = [h for h in heads if h not in absorbed]
        pc_of = {node: pc for pc, node in enumerate(arm_heads)}
        blocks = []
        for node in arm_heads:
            loop = loops.get(node)
            if loop is None:
                blocks.append(self._gen_block(
                    node, env, head_set, pc_of, exit_node,
                    da_ins.get(node, set())))
            else:
                blocks.append(self._gen_loop_block(
                    node, loop, env, head_set, pc_of, exit_node,
                    da_ins))
        if len(blocks) == 1:
            return blocks[0]
        lines = ["_pc = 0", "while True:"]
        for pc, block in enumerate(blocks):
            kw = "if" if pc == 0 else "elif"
            lines.append(f"    {kw} _pc == {pc}:")
            lines.extend(_ind(_ind(block)))
        return lines

    def _jump_lines(self, node: Optional[FlowNode],
                    pc_of: Dict[FlowNode, int],
                    exit_node: FlowNode) -> List[str]:
        """Transfer control to ``node``: a dispatch jump, or a return
        when the target is the function exit."""
        if node is None or node is exit_node:
            return ["return None"]
        if node not in pc_of:
            raise _Fallback("jump into an absorbed loop body")
        return [f"_pc = {pc_of[node]}", "continue"]

    def _emit_branch(self, lines: List[str], cond_src: str,
                     true_succ: Optional[FlowNode],
                     false_succ: Optional[FlowNode],
                     pc_of: Dict[FlowNode, int],
                     exit_node: FlowNode) -> None:
        """Two-way branch; either arm may be the function exit."""
        t_exit = true_succ is None or true_succ is exit_node
        f_exit = false_succ is None or false_succ is exit_node
        if not t_exit and not f_exit:
            t, f = pc_of[true_succ], pc_of[false_succ]
            lines.append(f"_pc = {t} if ({cond_src}) else {f}")
            lines.append("continue")
            return
        lines.append(f"if ({cond_src}):")
        lines.extend(_ind(self._jump_lines(true_succ, pc_of,
                                           exit_node)))
        lines.extend(self._jump_lines(false_succ, pc_of, exit_node))

    def _gen_block(self, head: FlowNode, env: Dict[str, object],
                   head_set: Dict[FlowNode, int],
                   pc_of: Dict[FlowNode, int],
                   exit_node: FlowNode,
                   da_in: Set[int],
                   loop_break: Optional[tuple] = None,
                   loop_continue: Optional[FlowNode] = None
                   ) -> List[str]:
        self._da = set(da_in)
        lines: List[str] = []
        pending = 0
        if self._counting:
            self._cur = None

        def flush_ticks() -> None:
            # Batched ticks: one add + one check per side-effecting
            # node (plus the pure nodes since the last one).  On
            # overflow the crossing tick was max_steps + 1, which is
            # exactly where _hit lands the shared cell.
            nonlocal pending
            if pending:
                add = "count += 1" if pending == 1 \
                    else f"count += {pending}"
                lines.append(add)
                lines.append("if count > _ms: _hit(_ms + 1)")
                pending = 0

        node: Optional[FlowNode] = head
        first = True
        while True:
            if node is None or node is exit_node:
                flush_ticks()
                lines.append("return None")
                return lines
            if not first and node in head_set:
                flush_ticks()
                if node is loop_continue:
                    # Back edge of an absorbed loop: fall off the end
                    # of the native while body.
                    return lines
                lines.extend(self._jump_lines(node, pc_of, exit_node))
                return lines
            first = False
            kind = node.kind
            pending += 1
            if self._counting:
                self._ctx = self._node_ctx(node)
            if kind in _PURE_KINDS:
                node = node.succs[0] if node.succs else None
                continue
            if kind == "assign":
                # A register-only, fault-free assign keeps its tick
                # pending: executing it a hair past the step limit is
                # unobservable (registers die with the frame, the cell
                # still lands at max_steps + 1).
                if not self._is_fusible_assign(node.stmt):
                    flush_ticks()
                self._emit_leaf(node.stmt, env, lines)
                node = node.succs[0] if node.succs else None
                continue
            if kind == "call":
                flush_ticks()
                self._emit_call_stmt(node.stmt, env, lines)
                node = node.succs[0] if node.succs else None
                continue
            if kind == "cond":
                flush_ticks()
                if self._counting:
                    self._count(self._events(node.stmt.cond)
                                + [("branch", None)], lines)
                src = self._guarded_bool_src(node.stmt.cond, env,
                                             lines)
                if loop_break is not None:
                    lines.append(f"if not ({src}): break"
                                 if loop_break[2]
                                 else f"if ({src}): break")
                    return lines
                self._emit_branch(lines, src, node.true_succ,
                                  node.false_succ, pc_of, exit_node)
                return lines
            if kind == "do_init":
                stmt = node.stmt
                flush_ticks()
                if stmt.parallel or stmt.vector:
                    self._emit_special_loop(stmt, env, lines)
                    # The whole loop ran as one node; continue at the
                    # 'after' join (do_cond's false branch).
                    node = node.succs[0].false_succ
                    continue
                if self._counting:
                    self._count(self._events(stmt.lo)
                                + write_events(stmt.var, self._in_memory)
                                + self._events(stmt.hi)
                                + [("do_exit", stmt.sid)], lines)
                lo = self._guarded_src(stmt.lo, env, lines)
                lines.extend(self._gen_write_lines(stmt.var, lo, env))
                hi = self._guarded_src(stmt.hi, env, lines)
                lines.append(f"_h{self._hi_slot(stmt.sid)} = {hi}")
                node = node.succs[0] if node.succs else None
                continue
            if kind == "do_cond":
                stmt = node.stmt
                flush_ticks()
                if self._counting:
                    self._count([("load", stmt.var.ctype)]
                                if self._in_memory(stmt.var) else [],
                                lines)
                    self._count([("branch", None)], lines)
                # Variable read first (its uninitialized fault comes
                # before any live bound evaluation), then the captured
                # bound, re-evaluated live when entered by goto.
                tv = self._gen_var_read(stmt.var, env)
                if not tv.startswith("_r"):  # guarded read: hoist
                    t = self._tmp_name()
                    lines.append(f"{t} = {tv}")
                    tv = t
                th = self._tmp_name()
                lines.append(f"{th} = _h{self._hi_slot(stmt.sid)}")
                lines.append(f"if {th} is _U:")
                sub: List[str] = []
                saved = self._enter_region()
                if self._counting:
                    self._count(self._events(stmt.hi), sub)
                hi = self._guarded_src(stmt.hi, env, sub)
                self._leave_region(saved)
                sub.append(f"{th} = {hi}")
                lines.extend(_ind(sub))
                cmp = "<=" if stmt.step > 0 else ">="
                if loop_break is not None:
                    lines.append(f"if not ({tv} {cmp} {th}): break"
                                 if loop_break[2]
                                 else f"if ({tv} {cmp} {th}): break")
                    return lines
                self._emit_branch(lines, f"{tv} {cmp} {th}",
                                  node.true_succ, node.false_succ,
                                  pc_of, exit_node)
                return lines
            if kind == "do_step":
                stmt = node.stmt
                sym = stmt.var
                if sym.is_volatile:
                    raise _Fallback("volatile loop variable")
                if self._counting:
                    self._count([("load", sym.ctype), ("store", sym.ctype)]
                                if self._in_memory(sym) else [], lines)
                    self._count([("intop", "+")], lines)
                    self._count([("do_iter", stmt.sid)], lines,
                                ctx=self._ctx_of.get(id(stmt), ()))
                kind2, where = self._binding(sym)
                if kind2 == "reg":
                    if where in self._da:
                        # Fault-free register bump: tick stays pending.
                        value = self._gen_conv(
                            f"(_r{where} + {stmt.step!r})",
                            sym.ctype, env)
                        lines.append(f"_r{where} = {value}")
                    else:
                        flush_ticks()
                        un = self._bind(env, sym.name)
                        lines.append(f"if _r{where} is _U: _ui({un})")
                        value = self._gen_conv(
                            f"(_r{where} + {stmt.step!r})",
                            sym.ctype, env)
                        lines.append(f"_r{where} = {value}")
                        self._da.add(where)
                else:
                    flush_ticks()
                    t = self._tmp_name()
                    lines.append(
                        f"{t} = {self._gen_var_read(sym, env)}")
                    lines.extend(self._gen_write_lines(
                        sym, f"({t} + {stmt.step!r})", env))
                node = node.succs[0] if node.succs else None
                continue
            if kind == "return":
                stmt = node.stmt
                flush_ticks()
                if stmt.value is None:
                    lines.append("return None")
                elif not self._counting:
                    src = self._guarded_src(stmt.value, env, lines)
                    lines.append(f"return {src}")
                else:
                    self._count(self._events(stmt.value), lines)
                    src = self._with_clean_call(
                        stmt.value, self._guarded_src, stmt.value, env,
                        lines)
                    lines.append(f"return {src}")
                return lines
            raise _Fallback(f"flow node kind {kind!r}")

    # -- entry point -------------------------------------------------------

    def _gen_param_lines(self, env: Dict[str, object]) -> List[str]:
        lines: List[str] = []
        for i, sym in enumerate(self.fn.params):
            if sym.is_volatile:
                raise _Fallback("volatile parameter")
            kind, where = self._binding(sym)
            if kind == "reg":
                self._param_regs.add(where)
                value = self._gen_conv(f"args[{i}]", sym.ctype, env)
                lines.append(f"_r{where} = {value}")
                continue
            if _is_aggregate(sym.ctype):
                raise _Fallback("aggregate parameter")
            value = self._gen_conv(f"args[{i}]", sym.ctype, env)
            is_float = isinstance(sym.ctype, FloatType)
            if kind == "mem":
                lines.extend(self._gen_store_lines(
                    f"_m{where}", value, sym.ctype, env,
                    float_value=is_float))
            else:
                lines.extend(self._gen_store_lines(
                    str(where), value, sym.ctype, env,
                    const_addr=where, float_value=is_float))
        return lines

    def generate(self) -> _CodegenEntry:
        """Lower the whole function to one generated Python function;
        raises :class:`_Fallback` when the closure tier must run it."""
        fn = self.fn
        env: Dict[str, object] = {
            "_U": _UNSET, "_ui": _raise_uninit, "_f32": _fast_round_f32,
            "_sc": self.engine._step_cell,
            "_hit": self.engine._hit_limit,
            "_eng": self.engine,
            "_mem": self.engine.memory,
        }
        self._recipes = {"_sc": ("scell",), "_hit": ("hit",),
                         "_eng": ("engine",), "_mem": ("memory",)}
        if self._counting:
            for name, recipe in (("_K", ("counts",)), ("_kb", ("bump",)),
                                 ("_vec", ("vec",))):
                env[name] = None
                self._recipes[name] = recipe
        try:
            body = self._gen_flow(env)
            params = self._gen_param_lines(env)
        except RecursionError:
            raise _Fallback("function too deep to generate") from None
        check = self._bind(env,
                           _make_arg_check(fn.name, len(fn.params)))
        # Prologue mirrors the oracle's _exec_function: argument check,
        # memory mark, memory-backed locals in tree-walker order
        # (duplicates preserved — last allocation wins), converted
        # parameter writes; all *outside* the try so an allocation
        # failure does not release the mark, exactly like the oracle.
        inner: List[str] = [
            f"if len(args) != {len(fn.params)}:",
            f"    {check}(len(args))",
            "count = _sc[0]",
            "_ms = _eng.max_steps",
            "_mark = _mem.mark()",
        ]
        if self._counting:
            inner.append("_k = _K")
        for slot, ctype in self._mem_allocs:
            inner.append(f"_m{slot} = _mem.allocate({ctype.sizeof()})")
        inner.extend(params)
        regs = sorted(set(self._reg_slots.values()) - self._param_regs)
        if regs:
            inner.append(" = ".join(f"_r{s}" for s in regs) + " = _U")
        his = sorted(self._hi_slots.values())
        if his:
            inner.append(" = ".join(f"_h{s}" for s in his) + " = _U")
        inner.append("try:")
        inner.extend(_ind(body))
        # The finally lands the local count in the shared cell — but
        # only when it is ahead (a fault in a *callee* leaves the cell
        # ahead of this frame's stale local) and within the limit (on
        # the limit path _hit already landed the cell at exactly
        # max_steps + 1; a batched local count may sit past it) —
        # then releases this activation's memory.
        inner.extend(["finally:",
                      "    if _sc[0] < count <= _ms:",
                      "        _sc[0] = count",
                      "    _mem.release(_mark)"])
        source = ("def _bytecode_fn(args):\n"
                  + "".join(f"    {line}\n" for line in inner))
        if len(source) > _SOURCE_LIMIT:
            raise _Fallback("generated source too large")
        try:
            code = compile(source, f"<titancc-bytecode:{fn.name}>",
                           "exec")
        except (SyntaxError, RecursionError, MemoryError,
                ValueError) as exc:
            raise _Fallback(f"compile failed: {exc}") from None
        table = _CountTable(self._regions, self._vectors,
                            _unclean_loops(fn)) \
            if self._counting else None
        return _CodegenEntry(fn, source, code, dict(self._recipes),
                             tuple(dict.fromkeys(self._baked)),
                             len(self.engine.memory.data), table)


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------


class _CountedRun:
    """Prices one engine's counted blocks into its TitanCostModel.

    Each installed counting function gets a counter list; pricing is
    one dot product per (event kind, suppression) of the function's
    event table against its counters, then a bulk
    :meth:`~repro.titan.cost_model.TitanCostModel.charge`.  The model
    runs :meth:`flush` at every parallel boundary (so counts land in
    the region they ran in) and the engine at the end of every run."""

    def __init__(self, model):
        self.model = model
        self._functions: List[tuple] = []
        model.attach_pricer(self.flush)

    def register(self, table: _CountTable) -> tuple:
        """(counts, bump, vec) for one installed function."""
        schedules = self.model.schedules
        size = len(table.regions)
        plan: Dict[tuple, List[int]] = {}
        for index, events in enumerate(table.regions):
            for kind, detail, loops in events:
                sid = None
                if kind in ("do_iter", "do_exit"):
                    if detail not in schedules:
                        continue
                    sid = detail
                key = (kind, sid, any(s in schedules for s in loops))
                row = plan.get(key)
                if row is None:
                    row = plan[key] = [0] * size
                row[index] += 1
        counts = [0] * size
        self._functions.append(
            (counts, [0] * size,
             [(row,) + key for key, row in plan.items()]))

        def bump(value, index):
            counts[index] += 1
            return value

        vectors = table.vectors
        vector = self.model.vector
        vector_reduce = self.model.vector_reduce

        def vec(j, length, *caches):
            pos, regions, ops, reduce_op = vectors[j]
            if pos is not None:
                counts[pos] += 1
            for cache, region in zip(caches, regions):
                if cache is not None:
                    counts[region] += 1
            if reduce_op is not None:
                vector_reduce(reduce_op, length)
            else:
                for op, stride in ops:
                    vector(op, length, stride)

        return counts, bump, vec

    def flush(self) -> None:
        charge = self.model.charge
        mul = operator.mul
        for counts, zeros, plan in self._functions:
            if any(counts):
                for row, kind, sid, suppressed in plan:
                    n = sum(map(mul, counts, row))
                    if n:
                        charge(kind, n, sid, suppressed)
                counts[:] = zeros


class BytecodeInterpreter(CompiledInterpreter):
    """Drop-in :class:`Interpreter` executing generated Python code.

    Same constructor, same public API, same observable semantics (the
    three-way differential tests enforce this against the tree oracle
    and the closure engine).  Each function runs as one generated
    Python function.  Under a :class:`~repro.titan.cost_model.
    TitanCostModel` hook without a profiler (the Titan simulator) the
    generated code counts block executions, which the model prices in
    bulk; any other hook, a profiler, or a program with a function the
    generator cannot lower runs on the closure tier, which emits the
    oracle's exact event stream (see :meth:`simulation_tier`).
    """

    engine_name = "bytecode"
    #: Codegen-cache lookups (a fallback entry counts as a miss).
    codegen_hits = 0
    codegen_misses = 0
    #: ("counted", "") or ("events", reason) for the installed hook;
    #: None until first needed.
    _tier: Optional[Tuple[str, str]] = None
    _counted: Optional[_CountedRun] = None
    _calls: Optional[Dict[str, Set[str]]] = None
    _par_fns: Optional[Set[str]] = None

    def call_function(self, name: str,
                      args: Sequence[Value]) -> Optional[Value]:
        try:
            return super().call_function(name, args)
        finally:
            if self._counted is not None:
                self._counted.flush()

    def _exec_function(self, fn: N.ILFunction,
                       args: List[Value]) -> Optional[Value]:
        if self.cost_hook is not self._compiled_hook:
            self._compiled.clear()
            self._compiled_hook = self.cost_hook
            self._tier = self._counted = None
        cached = self._compiled.get(fn.name)
        if cached is None or cached.fn is not fn:
            cached = self._materialize_function(fn)
            self._compiled[fn.name] = cached
        return cached.invoke(args)

    def simulation_tier(self) -> Tuple[str, str]:
        """How the installed cost hook is fed: ``("counted", "")`` when
        generated code counts blocks for bulk pricing, else
        ``("events", reason)`` with reason ``generic hook``,
        ``profile``, ``fallback function`` (the closure tier runs some
        function, so the whole run keeps the event stream) or
        ``scheduled loop shape`` (a scheduled loop whose suppressed
        charges counts cannot reproduce)."""
        if self._tier is None:
            self._tier = self._choose_tier(self.program.functions)
        return self._tier

    def _choose_tier(self, names) -> Tuple[str, str]:
        """Decide the tier for a run that can reach functions
        ``names``."""
        from ..titan.cost_model import TitanCostModel
        hook = self.cost_hook
        if not isinstance(hook, TitanCostModel):
            return ("events", "generic hook")
        if hook.profiler is not None:
            return ("events", "profile")
        functions = self.program.functions
        entries = [self._lookup(functions[name], counting=True)
                   for name in names]
        if any(isinstance(e, _FallbackEntry) for e in entries):
            return ("events", "fallback function")
        if any(sid in hook.schedules for e in entries
               for sid in e.table.unclean):
            return ("events", "scheduled loop shape")
        self._counted = _CountedRun(hook)
        return ("counted", "")

    def _call_graph(self) -> Dict[str, Set[str]]:
        if self._calls is None:
            self._calls = _call_graph(self.program)
        return self._calls

    def _parallel_functions(self) -> Set[str]:
        if self._par_fns is None:
            self._par_fns = _parallel_functions(self.program,
                                                self._call_graph())
        return self._par_fns

    def _reachable_functions(self, root: str) -> List[str]:
        """Functions a run entered at ``root`` can call."""
        calls = self._call_graph()
        seen = [root]
        for name in seen:
            seen.extend(c for c in sorted(calls[name]) if c not in seen)
        return seen

    def _materialize_function(self, fn: N.ILFunction) -> _CompiledFunction:
        from ..obs import telemetry
        if self.cost_hook is None:
            return self._install(self._lookup(fn, counting=False))
        if self._tier is None:
            # Decided at the run's first function, over what it can
            # reach: functions that never run cannot fall back.
            self._tier = self._choose_tier(
                self._reachable_functions(fn.name))
        if self._tier[0] == "counted":
            return self._install(self._lookup(fn, counting=True))
        # Event tier: hooks are baked into the closure engine's
        # closures; event order is bit-identical to the oracle there.
        with telemetry.span("engine-compile", cat="engine",
                            engine=self.engine_name, function=fn.name):
            return _FunctionCompiler(self, fn).compile()

    def _lookup(self, fn: N.ILFunction, counting: bool):
        """The (cached) codegen entry for ``fn`` in one flavour."""
        from ..obs import telemetry
        attr = _COUNTED_ATTR if counting else _CACHE_ATTR
        entry = getattr(fn, attr, None)
        if entry is not None and self._entry_valid(entry):
            if isinstance(entry, _CodegenEntry):
                self.codegen_hits += 1
            else:
                self.codegen_misses += 1
            return entry
        self.codegen_misses += 1
        with telemetry.span("engine-codegen", cat="engine",
                            engine=self.engine_name, function=fn.name):
            try:
                entry = _BytecodeFunctionCompiler(
                    self, fn, counting=counting).generate()
            except _Fallback as exc:
                entry = _FallbackEntry(fn, str(exc))
        try:
            setattr(fn, attr, entry)
        except (AttributeError, TypeError):
            pass
        return entry

    def _entry_valid(self, entry) -> bool:
        """A cached entry is reusable only while its baked facts hold:
        same memory size and every baked global symbol still at its
        compile-time address."""
        if isinstance(entry, _FallbackEntry):
            return True
        if not isinstance(entry, _CodegenEntry):
            return False
        if entry.mem_limit != len(self.memory.data):
            return False
        memory = self.memory
        for sym, addr in entry.baked:
            if not memory.has_storage(sym) or \
                    memory.address_of(sym) != addr:
                return False
        return True

    def _install(self, entry) -> _CompiledFunction:
        if isinstance(entry, _FallbackEntry):
            return _FunctionCompiler(self, entry.fn).compile()
        counted = self._counted.register(entry.table) \
            if entry.table is not None else None
        env: Dict[str, object] = {"_U": _UNSET, "_ui": _raise_uninit,
                                  "_f32": _fast_round_f32}
        for name, recipe in entry.recipes.items():
            env[name] = _materialize_recipe(self, recipe, counted)
        namespace: Dict[str, object] = {}
        exec(entry.code, env, namespace)
        return _CompiledFunction(entry.fn, namespace["_bytecode_fn"])

    def invalidate_graphs(self) -> None:
        super().invalidate_graphs()
        self._tier = self._counted = None
        self._calls = self._par_fns = None
        for fn in self.program.functions.values():
            for attr in (_CACHE_ATTR, _COUNTED_ATTR):
                if hasattr(fn, attr):
                    try:
                        delattr(fn, attr)
                    except AttributeError:
                        pass

    # -- debugging ---------------------------------------------------------

    def _entry_for(self, name: str):
        """Materialize (and cache) the codegen entry for one function
        without executing it — the shared path under
        :meth:`disassemble` and :meth:`generated_code`."""
        fn = self.program.functions.get(name)
        if fn is None:
            raise InterpreterError(f"no function named {name!r}")
        entry = getattr(fn, _CACHE_ATTR, None)
        if entry is None or not self._entry_valid(entry):
            try:
                entry = _BytecodeFunctionCompiler(self, fn).generate()
            except _Fallback as exc:
                entry = _FallbackEntry(fn, str(exc))
            try:
                setattr(fn, _CACHE_ATTR, entry)
            except (AttributeError, TypeError):
                pass
        return entry

    def generated_code(self, name: str) -> Dict[str, object]:
        """One function's codegen outcome as data (the compilation
        service's engine-artifact probe): ``{"tier": "bytecode",
        "source": ...}`` for generated functions, ``{"tier":
        "closure", "reason": ...}`` for fallbacks.  Deterministic for
        a given program, so it is safe inside content-addressed cache
        payloads."""
        entry = self._entry_for(name)
        if isinstance(entry, _FallbackEntry):
            return {"tier": "closure", "reason": entry.reason}
        return {"tier": "bytecode", "source": entry.source}

    def disassemble(self, name: str) -> str:
        """Generated source + CPython disassembly for one function
        (the CLI's ``--dump-code``); fallback functions report why
        they have no generated bytecode."""
        entry = self._entry_for(name)
        if isinstance(entry, _FallbackEntry):
            return (f"{name}: no generated bytecode "
                    f"(closure-tier fallback: {entry.reason})\n")
        compiled = self._install(entry)
        buf = io.StringIO()
        buf.write(f"# generated source for {name}\n")
        buf.write(entry.source)
        buf.write(f"\n# CPython bytecode for {name}\n")
        dis.dis(compiled.invoke, file=buf)
        return buf.getvalue()
