"""Recursive-descent parser for the C subset.

The grammar covered is the C89 core plus function prototypes (the paper
notes these were added to the PCC2-derived front end) and ``volatile``:

* declarations with full declarator syntax (pointers, arrays, function
  types, parenthesized declarators), ``typedef``, ``struct``/``union``
  with embedded arrays, ``enum``;
* every statement form including ``goto``/labels and ``switch``;
* the complete expression grammar with correct precedence, including the
  side-effecting operators (``++``, embedded assignment, ``&&``, ``||``,
  ``?:``, ``,``) that lowering later removes.

Typedef names are disambiguated with the classic lexer-feedback trick:
the parser maintains a scope stack of typedef names and enum constants.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from . import c_ast as A
from . import lexer as L
from .ctypes_ import (ArrayType, CType, DOUBLE, FLOAT, FunctionType, INT,
                      IntType, FloatType, PointerType, StructType,
                      TypeError_, VOID, layout_struct)


class ParseError(Exception):
    def __init__(self, message: str, coord: Optional[A.Coord] = None):
        if coord is not None:
            message = f"{coord}: {message}"
        super().__init__(message)
        self.coord = coord


_TYPE_SPECIFIER_KEYWORDS = {
    "void", "char", "short", "int", "long", "float", "double",
    "signed", "unsigned", "struct", "union", "enum",
}
_STORAGE_KEYWORDS = {"auto", "register", "static", "extern", "typedef"}
_QUALIFIER_KEYWORDS = {"const", "volatile"}

_ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "<<=", ">>=",
               "&=", "^=", "|="}


class Parser:
    def __init__(self, tokens: List[L.Token]):
        self.tokens = tokens
        self.pos = 0
        # Scope stack for typedef names and enum constants.
        self.typedef_scopes: List[Set[str]] = [set()]
        self.enum_scopes: List[Dict[str, int]] = [{}]
        self.tags: Dict[str, StructType] = {}
        self.pending_pragmas: List[str] = []

    # -- token plumbing -------------------------------------------------

    def _peek(self, offset: int = 0) -> L.Token:
        i = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[i]

    def _next(self) -> L.Token:
        tok = self._peek()
        if tok.kind != L.EOF:
            self.pos += 1
        return tok

    def _expect_punct(self, text: str) -> L.Token:
        tok = self._next()
        if not tok.is_punct(text):
            raise ParseError(f"expected {text!r}, found {tok.value!r}",
                             tok.coord)
        return tok

    def _expect_keyword(self, text: str) -> L.Token:
        tok = self._next()
        if not tok.is_keyword(text):
            raise ParseError(f"expected {text!r}, found {tok.value!r}",
                             tok.coord)
        return tok

    def _accept_punct(self, text: str) -> bool:
        if self._peek().is_punct(text):
            self._next()
            return True
        return False

    def _collect_pragmas(self) -> None:
        while self._peek().kind == L.PRAGMA:
            self.pending_pragmas.append(self._next().value)

    # -- typedef/enum scope helpers ---------------------------------------

    def _push_scope(self) -> None:
        self.typedef_scopes.append(set())
        self.enum_scopes.append({})

    def _pop_scope(self) -> None:
        self.typedef_scopes.pop()
        self.enum_scopes.pop()

    def _is_typedef_name(self, name: str) -> bool:
        return any(name in scope for scope in self.typedef_scopes)

    def _lookup_enum_const(self, name: str) -> Optional[int]:
        for scope in reversed(self.enum_scopes):
            if name in scope:
                return scope[name]
        return None

    def _typedef_type(self, name: str) -> CType:
        return self._typedefs[name]

    # -- entry point -------------------------------------------------------

    def parse_translation_unit(self) -> A.TranslationUnit:
        self._typedefs: Dict[str, CType] = {}
        unit = A.TranslationUnit(items=[])
        self._collect_pragmas()
        while self._peek().kind != L.EOF:
            item = self._parse_external_declaration()
            if item is not None:
                unit.items.append(item)
            # Pragmas not consumed by a function definition do not leak
            # across items.
            self.pending_pragmas.clear()
            self._collect_pragmas()
        return unit

    # -- declarations --------------------------------------------------------

    def _starts_declaration(self) -> bool:
        tok = self._peek()
        if tok.kind == L.KEYWORD and tok.value in (
                _TYPE_SPECIFIER_KEYWORDS | _STORAGE_KEYWORDS
                | _QUALIFIER_KEYWORDS):
            return True
        return tok.kind == L.ID and self._is_typedef_name(tok.value)

    def _parse_external_declaration(self):
        coord = self._peek().coord
        storage, base_type = self._parse_declaration_specifiers()
        if self._accept_punct(";"):
            return None  # e.g. a bare ``struct point { ... };``
        name, ctype, params = self._parse_declarator(base_type)
        if isinstance(ctype, FunctionType) and self._peek().is_punct("{"):
            if name is None:
                raise ParseError("function definition without a name", coord)
            pragmas = tuple(self.pending_pragmas)
            self.pending_pragmas.clear()
            self._push_scope()
            body = self._parse_compound()
            self._pop_scope()
            return A.FuncDef(name=name, ctype=ctype, params=params or [],
                             body=body, storage=storage or "extern",
                             pragmas=pragmas, coord=coord)
        # Otherwise a (possibly multi-name) declaration.
        decl = self._finish_declaration(storage, base_type, name, ctype,
                                        coord)
        return decl

    def _finish_declaration(self, storage: Optional[str], base_type: CType,
                            first_name: Optional[str], first_type: CType,
                            coord: A.Coord) -> Optional[A.Decl]:
        declarators: List[A.Declarator] = []
        name, ctype = first_name, first_type
        while True:
            init = None
            if self._accept_punct("="):
                init = self._parse_initializer()
            if name is None:
                raise ParseError("declarator without a name", coord)
            if storage == "typedef":
                self.typedef_scopes[-1].add(name)
                self._typedefs[name] = ctype
            else:
                declarators.append(A.Declarator(name=name, ctype=ctype,
                                                init=init, coord=coord))
            if not self._accept_punct(","):
                break
            name, ctype, _ = self._parse_declarator(base_type)
        self._expect_punct(";")
        if storage == "typedef" or not declarators:
            return None
        return A.Decl(declarators=declarators, storage=storage or "auto",
                      coord=coord)

    def _parse_declaration_specifiers(self) -> Tuple[Optional[str], CType]:
        storage: Optional[str] = None
        const = False
        volatile = False
        specifiers: List[str] = []
        struct_type: Optional[CType] = None
        typedef_type: Optional[CType] = None
        while True:
            tok = self._peek()
            if tok.kind == L.KEYWORD and tok.value in _STORAGE_KEYWORDS:
                if storage is not None and storage != tok.value:
                    raise ParseError("multiple storage classes", tok.coord)
                storage = tok.value
                self._next()
            elif tok.kind == L.KEYWORD and tok.value in _QUALIFIER_KEYWORDS:
                const = const or tok.value == "const"
                volatile = volatile or tok.value == "volatile"
                self._next()
            elif tok.is_keyword("struct") or tok.is_keyword("union"):
                struct_type = self._parse_struct_or_union()
            elif tok.is_keyword("enum"):
                struct_type = self._parse_enum()
            elif (tok.kind == L.KEYWORD
                  and tok.value in _TYPE_SPECIFIER_KEYWORDS):
                specifiers.append(tok.value)
                self._next()
            elif (tok.kind == L.ID and self._is_typedef_name(tok.value)
                  and not specifiers and struct_type is None
                  and typedef_type is None):
                typedef_type = self._typedef_type(tok.value)
                self._next()
            else:
                break
        if struct_type is not None:
            base = struct_type
        elif typedef_type is not None:
            base = typedef_type
        elif specifiers:
            base = self._resolve_specifiers(specifiers)
        else:
            base = INT  # implicit int, as K&R C allowed
        if const or volatile:
            base = base.qualified(const=const, volatile=volatile)
        return storage, base

    @staticmethod
    def _resolve_specifiers(specifiers: List[str]) -> CType:
        spec = sorted(specifiers)
        key = " ".join(spec)
        table = {
            "void": VOID,
            "char": IntType(kind="char"),
            "char signed": IntType(kind="signed char"),
            "char unsigned": IntType(kind="unsigned char"),
            "short": IntType(kind="short"),
            "int short": IntType(kind="short"),
            "short unsigned": IntType(kind="unsigned short"),
            "int short unsigned": IntType(kind="unsigned short"),
            "int": INT,
            "signed": INT,
            "int signed": INT,
            "unsigned": IntType(kind="unsigned int"),
            "int unsigned": IntType(kind="unsigned int"),
            "long": IntType(kind="long"),
            "int long": IntType(kind="long"),
            "long unsigned": IntType(kind="unsigned long"),
            "int long unsigned": IntType(kind="unsigned long"),
            "long long": IntType(kind="long"),
            "float": FLOAT,
            "double": DOUBLE,
            "double long": FloatType(kind="long double"),
        }
        if key not in table:
            raise ParseError(f"unsupported type specifiers {specifiers}")
        return table[key]

    def _parse_struct_or_union(self) -> CType:
        tok = self._next()  # struct | union
        is_union = tok.value == "union"
        tag = None
        if self._peek().kind == L.ID:
            tag = self._next().value
        if not self._peek().is_punct("{"):
            if tag is None:
                raise ParseError("anonymous struct without body", tok.coord)
            key = ("union " if is_union else "struct ") + tag
            if key in self.tags:
                return self.tags[key]
            incomplete = StructType(tag=tag, is_union=is_union,
                                    complete=False)
            self.tags[key] = incomplete
            return incomplete
        self._expect_punct("{")
        members: List[Tuple[str, CType]] = []
        while not self._peek().is_punct("}"):
            _, member_base = self._parse_declaration_specifiers()
            while True:
                mname, mtype, _ = self._parse_declarator(member_base)
                if mname is None:
                    raise ParseError("unnamed struct member", tok.coord)
                members.append((mname, mtype))
                if not self._accept_punct(","):
                    break
            self._expect_punct(";")
        self._expect_punct("}")
        tag = tag or f"<anon@{tok.coord.line}>"
        struct = layout_struct(tag, members, is_union=is_union)
        self.tags[("union " if is_union else "struct ") + tag] = struct
        return struct

    def _parse_enum(self) -> CType:
        tok = self._expect_keyword("enum")
        if self._peek().kind == L.ID:
            self._next()  # tag, unused beyond syntax
        if self._peek().is_punct("{"):
            self._next()
            value = 0
            while not self._peek().is_punct("}"):
                name_tok = self._next()
                if name_tok.kind != L.ID:
                    raise ParseError("expected enumerator name",
                                     name_tok.coord)
                if self._accept_punct("="):
                    value = self._parse_constant_int()
                self.enum_scopes[-1][name_tok.value] = value
                value += 1
                if not self._accept_punct(","):
                    break
            self._expect_punct("}")
        return INT

    def _parse_constant_int(self) -> int:
        expr = self._parse_conditional()
        value = _fold_int(expr, self)
        if value is None:
            raise ParseError("expected integer constant expression",
                             expr.coord)
        return value

    # -- declarators -----------------------------------------------------------

    def _parse_declarator(self, base: CType, abstract: bool = False
                          ) -> Tuple[Optional[str], CType,
                                     Optional[List[A.ParamDecl]]]:
        """Parse a declarator; returns (name, full type, params-if-function).

        Uses the standard two-pass trick: pointers bind loosest, then the
        direct declarator, then postfix array/function suffixes.
        """
        while self._accept_punct("*"):
            const = volatile = False
            while self._peek().kind == L.KEYWORD and (
                    self._peek().value in _QUALIFIER_KEYWORDS):
                qual = self._next().value
                const = const or qual == "const"
                volatile = volatile or qual == "volatile"
            base = PointerType(base=base, const=const, volatile=volatile)
        return self._parse_direct_declarator(base, abstract)

    def _parse_direct_declarator(self, base: CType, abstract: bool
                                 ) -> Tuple[Optional[str], CType,
                                            Optional[List[A.ParamDecl]]]:
        name: Optional[str] = None
        inner: Optional[int] = None  # token index of '(' for nested declr
        if self._peek().is_punct("(") and self._is_nested_declarator():
            self._expect_punct("(")
            inner = self.pos
            depth = 1
            while depth:
                tok = self._next()
                if tok.is_punct("("):
                    depth += 1
                elif tok.is_punct(")"):
                    depth -= 1
                elif tok.kind == L.EOF:
                    raise ParseError("unterminated declarator", tok.coord)
        elif self._peek().kind == L.ID:
            name = self._next().value
        elif not abstract:
            # allow missing name only in abstract contexts
            pass
        params: Optional[List[A.ParamDecl]] = None
        suffixes: List[Tuple[str, object]] = []
        while True:
            if self._peek().is_punct("["):
                self._next()
                length: Optional[int] = None
                if not self._peek().is_punct("]"):
                    length = self._parse_constant_int()
                self._expect_punct("]")
                suffixes.append(("array", length))
            elif self._peek().is_punct("("):
                self._next()
                fn_params, varargs, prototyped = self._parse_param_list()
                suffixes.append(("function", (fn_params, varargs,
                                              prototyped)))
                if params is None:
                    params = fn_params
            else:
                break
        ctype = base
        for kind, payload in reversed(suffixes):
            if kind == "array":
                ctype = ArrayType(base=ctype, length=payload)
            else:
                fn_params, varargs, prototyped = payload
                ptypes = tuple(p.ctype for p in fn_params)
                ctype = FunctionType(ret=ctype, params=ptypes,
                                     varargs=varargs, prototyped=prototyped)
        if inner is not None:
            # Re-parse the nested declarator against the suffixed type.
            saved = self.pos
            self.pos = inner
            name, ctype, inner_params = self._parse_declarator(ctype,
                                                               abstract)
            self._expect_punct(")")
            self.pos = saved
            if inner_params is not None:
                params = inner_params
        return name, ctype, params

    def _is_nested_declarator(self) -> bool:
        """Disambiguate ``(*f)(...)`` from a parameter list ``(int x)``."""
        tok = self._peek(1)
        if tok.is_punct("*") or tok.is_punct("("):
            return True
        if tok.kind == L.ID and not self._is_typedef_name(tok.value):
            return True
        return False

    def _parse_param_list(self) -> Tuple[List[A.ParamDecl], bool, bool]:
        params: List[A.ParamDecl] = []
        varargs = False
        if self._accept_punct(")"):
            return params, varargs, False  # () = unprototyped
        if (self._peek().is_keyword("void")
                and self._peek(1).is_punct(")")):
            self._next()
            self._next()
            return params, varargs, True
        while True:
            if self._accept_punct("..."):
                varargs = True
                break
            coord = self._peek().coord
            _, base = self._parse_declaration_specifiers()
            name, ctype, _ = self._parse_declarator(base, abstract=True)
            # Parameter arrays decay to pointers; functions to fn pointers.
            if isinstance(ctype, ArrayType):
                ctype = PointerType(base=ctype.base)
            elif isinstance(ctype, FunctionType):
                ctype = PointerType(base=ctype)
            params.append(A.ParamDecl(name=name, ctype=ctype, coord=coord))
            if not self._accept_punct(","):
                break
        self._expect_punct(")")
        return params, varargs, True

    def _parse_type_name(self) -> A.TypeName:
        coord = self._peek().coord
        _, base = self._parse_declaration_specifiers()
        name, ctype, _ = self._parse_declarator(base, abstract=True)
        if name is not None:
            raise ParseError("type name must not declare an identifier",
                             coord)
        return A.TypeName(ctype=ctype, coord=coord)

    def _parse_initializer(self) -> A.Initializer:
        coord = self._peek().coord
        if self._accept_punct("{"):
            items: List[A.Initializer] = []
            while not self._peek().is_punct("}"):
                items.append(self._parse_initializer())
                if not self._accept_punct(","):
                    break
            self._expect_punct("}")
            return A.Initializer(items=items, coord=coord)
        return A.Initializer(expr=self._parse_assignment(), coord=coord)

    # -- statements --------------------------------------------------------------

    def _parse_compound(self) -> A.Compound:
        coord = self._expect_punct("{").coord
        self._push_scope()
        items: List[A.Stmt] = []
        while not self._peek().is_punct("}"):
            items.append(self._parse_block_item())
        self._expect_punct("}")
        self._pop_scope()
        return A.Compound(items=items, coord=coord)

    def _parse_block_item(self) -> A.Stmt:
        self._collect_pragmas()
        if self._starts_declaration():
            coord = self._peek().coord
            storage, base = self._parse_declaration_specifiers()
            if self._accept_punct(";"):
                return A.ExprStmt(expr=None, coord=coord)
            name, ctype, _ = self._parse_declarator(base)
            decl = self._finish_declaration(storage, base, name, ctype,
                                            coord)
            if decl is None:
                return A.ExprStmt(expr=None, coord=coord)
            return A.DeclStmt(decl=decl, coord=coord)
        return self._parse_statement()

    def _parse_statement(self) -> A.Stmt:
        self._collect_pragmas()
        tok = self._peek()
        coord = tok.coord
        if tok.is_punct("{"):
            return self._parse_compound()
        if tok.is_punct(";"):
            self._next()
            return A.ExprStmt(expr=None, coord=coord)
        if tok.is_keyword("if"):
            self._next()
            self._expect_punct("(")
            cond = self._parse_expression()
            self._expect_punct(")")
            then = self._parse_statement()
            otherwise = None
            if self._peek().is_keyword("else"):
                self._next()
                otherwise = self._parse_statement()
            return A.If(cond=cond, then=then, otherwise=otherwise,
                        coord=coord)
        if tok.is_keyword("while"):
            self._next()
            self._expect_punct("(")
            cond = self._parse_expression()
            self._expect_punct(")")
            body = self._parse_statement()
            return A.While(cond=cond, body=body, coord=coord)
        if tok.is_keyword("do"):
            self._next()
            body = self._parse_statement()
            self._expect_keyword("while")
            self._expect_punct("(")
            cond = self._parse_expression()
            self._expect_punct(")")
            self._expect_punct(";")
            return A.DoWhile(body=body, cond=cond, coord=coord)
        if tok.is_keyword("for"):
            self._next()
            self._expect_punct("(")
            init = None
            if not self._peek().is_punct(";"):
                if self._starts_declaration():
                    init_coord = self._peek().coord
                    storage, base = self._parse_declaration_specifiers()
                    name, ctype, _ = self._parse_declarator(base)
                    decl = self._finish_declaration(storage, base, name,
                                                    ctype, init_coord)
                    init = decl
                else:
                    init = self._parse_expression()
                    self._expect_punct(";")
            else:
                self._next()
            cond = None
            if not self._peek().is_punct(";"):
                cond = self._parse_expression()
            self._expect_punct(";")
            step = None
            if not self._peek().is_punct(")"):
                step = self._parse_expression()
            self._expect_punct(")")
            body = self._parse_statement()
            return A.For(init=init, cond=cond, step=step, body=body,
                         coord=coord)
        if tok.is_keyword("return"):
            self._next()
            value = None
            if not self._peek().is_punct(";"):
                value = self._parse_expression()
            self._expect_punct(";")
            return A.Return(value=value, coord=coord)
        if tok.is_keyword("break"):
            self._next()
            self._expect_punct(";")
            return A.Break(coord=coord)
        if tok.is_keyword("continue"):
            self._next()
            self._expect_punct(";")
            return A.Continue(coord=coord)
        if tok.is_keyword("goto"):
            self._next()
            label = self._next()
            if label.kind != L.ID:
                raise ParseError("expected label after goto", label.coord)
            self._expect_punct(";")
            return A.Goto(label=label.value, coord=coord)
        if tok.is_keyword("switch"):
            self._next()
            self._expect_punct("(")
            cond = self._parse_expression()
            self._expect_punct(")")
            body = self._parse_statement()
            return A.Switch(cond=cond, body=body, coord=coord)
        if tok.is_keyword("case"):
            self._next()
            value = self._parse_conditional()
            if _fold_int(value, self) is None:
                raise ParseError("case label is not a constant "
                                 "expression", coord)
            self._expect_punct(":")
            return A.Case(value=value, stmt=self._parse_statement(),
                          coord=coord)
        if tok.is_keyword("default"):
            self._next()
            self._expect_punct(":")
            return A.Default(stmt=self._parse_statement(), coord=coord)
        if (tok.kind == L.ID and self._peek(1).is_punct(":")
                and self._lookup_enum_const(tok.value) is None):
            self._next()
            self._next()
            return A.LabelStmt(label=tok.value,
                               stmt=self._parse_statement(), coord=coord)
        expr = self._parse_expression()
        self._expect_punct(";")
        return A.ExprStmt(expr=expr, coord=coord)

    # -- expressions ---------------------------------------------------------------

    def _parse_expression(self) -> A.Expr:
        expr = self._parse_assignment()
        while self._peek().is_punct(","):
            coord = self._next().coord
            right = self._parse_assignment()
            expr = A.BinaryOp(op=",", left=expr, right=right, coord=coord)
        return expr

    def _parse_assignment(self) -> A.Expr:
        left = self._parse_conditional()
        tok = self._peek()
        if tok.kind == L.PUNCT and tok.value in _ASSIGN_OPS:
            self._next()
            right = self._parse_assignment()
            return A.Assignment(op=tok.value, target=left, value=right,
                                coord=tok.coord)
        return left

    def _parse_conditional(self) -> A.Expr:
        cond = self._parse_binary(0)
        if self._peek().is_punct("?"):
            coord = self._next().coord
            then = self._parse_expression()
            self._expect_punct(":")
            otherwise = self._parse_conditional()
            return A.Conditional(cond=cond, then=then, otherwise=otherwise,
                                 coord=coord)
        return cond

    _BINARY_LEVELS = [
        ["||"],
        ["&&"],
        ["|"],
        ["^"],
        ["&"],
        ["==", "!="],
        ["<", ">", "<=", ">="],
        ["<<", ">>"],
        ["+", "-"],
        ["*", "/", "%"],
    ]

    def _parse_binary(self, level: int) -> A.Expr:
        if level >= len(self._BINARY_LEVELS):
            return self._parse_cast()
        ops = self._BINARY_LEVELS[level]
        expr = self._parse_binary(level + 1)
        while self._peek().kind == L.PUNCT and self._peek().value in ops:
            tok = self._next()
            right = self._parse_binary(level + 1)
            expr = A.BinaryOp(op=tok.value, left=expr, right=right,
                              coord=tok.coord)
        return expr

    def _parse_cast(self) -> A.Expr:
        if self._peek().is_punct("(") and self._starts_type_name(1):
            coord = self._next().coord  # "("
            type_name = self._parse_type_name()
            self._expect_punct(")")
            operand = self._parse_cast()
            return A.Cast(to_type=type_name, operand=operand, coord=coord)
        return self._parse_unary()

    def _starts_type_name(self, offset: int) -> bool:
        tok = self._peek(offset)
        if tok.kind == L.KEYWORD and tok.value in (
                _TYPE_SPECIFIER_KEYWORDS | _QUALIFIER_KEYWORDS):
            return True
        return tok.kind == L.ID and self._is_typedef_name(tok.value)

    def _parse_unary(self) -> A.Expr:
        tok = self._peek()
        coord = tok.coord
        if tok.kind == L.PUNCT and tok.value in ("++", "--"):
            self._next()
            operand = self._parse_unary()
            return A.UnaryOp(op=tok.value, operand=operand, coord=coord)
        if tok.kind == L.PUNCT and tok.value in ("+", "-", "!", "~", "*",
                                                 "&"):
            self._next()
            operand = self._parse_cast()
            return A.UnaryOp(op=tok.value, operand=operand, coord=coord)
        if tok.is_keyword("sizeof"):
            self._next()
            if self._peek().is_punct("(") and self._starts_type_name(1):
                self._next()
                type_name = self._parse_type_name()
                self._expect_punct(")")
                return A.SizeofType(of_type=type_name, coord=coord)
            operand = self._parse_unary()
            return A.UnaryOp(op="sizeof", operand=operand, coord=coord)
        return self._parse_postfix()

    def _parse_postfix(self) -> A.Expr:
        expr = self._parse_primary()
        while True:
            tok = self._peek()
            if tok.is_punct("["):
                self._next()
                index = self._parse_expression()
                self._expect_punct("]")
                expr = A.Subscript(base=expr, index=index, coord=tok.coord)
            elif tok.is_punct("("):
                self._next()
                args: List[A.Expr] = []
                if not self._peek().is_punct(")"):
                    args.append(self._parse_assignment())
                    while self._accept_punct(","):
                        args.append(self._parse_assignment())
                self._expect_punct(")")
                expr = A.Call(func=expr, args=args, coord=tok.coord)
            elif tok.is_punct("."):
                self._next()
                name = self._next()
                expr = A.Member(base=expr, field_name=name.value,
                                arrow=False, coord=tok.coord)
            elif tok.is_punct("->"):
                self._next()
                name = self._next()
                expr = A.Member(base=expr, field_name=name.value,
                                arrow=True, coord=tok.coord)
            elif tok.kind == L.PUNCT and tok.value in ("++", "--"):
                self._next()
                expr = A.PostfixOp(op="p" + tok.value, operand=expr,
                                   coord=tok.coord)
            else:
                return expr

    def _parse_primary(self) -> A.Expr:
        tok = self._next()
        coord = tok.coord
        if tok.kind == L.INT_CONST:
            return A.IntLit(value=tok.int_value, suffix=tok.suffix,
                            coord=coord)
        if tok.kind == L.FLOAT_CONST:
            return A.FloatLit(value=tok.float_value, suffix=tok.suffix,
                              coord=coord)
        if tok.kind == L.CHAR_CONST:
            return A.CharLit(value=tok.int_value, coord=coord)
        if tok.kind == L.STRING:
            value = tok.value
            # Adjacent string literal concatenation.
            while self._peek().kind == L.STRING:
                value += self._next().value
            return A.StringLit(value=value, coord=coord)
        if tok.kind == L.ID:
            enum_value = self._lookup_enum_const(tok.value)
            if enum_value is not None:
                return A.IntLit(value=enum_value, coord=coord)
            return A.Ident(name=tok.value, coord=coord)
        if tok.is_punct("("):
            expr = self._parse_expression()
            self._expect_punct(")")
            return expr
        raise ParseError(f"unexpected token {tok.value!r}", coord)


def _fold_int(expr: A.Expr, parser: Parser) -> Optional[int]:
    """Minimal constant folding for array bounds and enum values."""
    if isinstance(expr, A.IntLit):
        return expr.value
    if isinstance(expr, A.CharLit):
        return expr.value
    if isinstance(expr, A.UnaryOp):
        value = _fold_int(expr.operand, parser)
        if value is None:
            return None
        return {"-": -value, "+": value, "~": ~value,
                "!": int(not value)}.get(expr.op)
    if isinstance(expr, A.BinaryOp):
        left = _fold_int(expr.left, parser)
        right = _fold_int(expr.right, parser)
        if left is None or right is None:
            return None
        try:
            return {
                "+": left + right, "-": left - right, "*": left * right,
                "/": left // right if right else None,
                "%": left % right if right else None,
                "<<": left << right, ">>": left >> right,
                "&": left & right, "|": left | right, "^": left ^ right,
                "==": int(left == right), "!=": int(left != right),
                "<": int(left < right), ">": int(left > right),
                "<=": int(left <= right), ">=": int(left >= right),
            }.get(expr.op)
        except (ZeroDivisionError, ValueError):
            return None
    if isinstance(expr, A.SizeofType):
        try:
            return expr.of_type.ctype.sizeof()
        except TypeError_:
            return None
    return None


def parse(source: str, filename: str = "<input>") -> A.TranslationUnit:
    """Tokenize and parse preprocessed C text."""
    tokens = L.tokenize(source, filename)
    parser = Parser(tokens)
    try:
        return parser.parse_translation_unit()
    except RecursionError:  # one Python frame per nesting level
        raise ParseError("nesting too deep",
                         parser._peek().coord) from None
