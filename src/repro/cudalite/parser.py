"""Recursive-descent parser for the CudaLite dialect.

The grammar is a subset of CUDA C restricted to what dense Cartesian-grid
stencil programs need (the same restriction the paper states in its
Limitations section): ``__global__`` kernels with canonical counted loops,
``__shared__`` tiles, guards, and a simplified host side with
``<<<grid, block>>>`` launches.

The parser produces the immutable AST defined in
:mod:`repro.cudalite.ast_nodes`.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..errors import ParseError
from . import ast_nodes as ast
from .lexer import scan
from .tokens import TokKind

_TYPE_KEYWORDS = frozenset(
    ("void", "int", "float", "double", "bool", "dim3", "unsigned", "long")
)
_TYPE_STARTS = _TYPE_KEYWORDS | {"const"}

_ASSIGN_OPS = frozenset(("=", "+=", "-=", "*=", "/="))

_UNARY_OPS = frozenset(("-", "!", "+"))

# Binary operator precedence, higher binds tighter.
_PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "==": 3,
    "!=": 3,
    "<": 4,
    "<=": 4,
    ">": 4,
    ">=": 4,
    "+": 5,
    "-": 5,
    "*": 6,
    "/": 6,
    "%": 6,
}


class Parser:
    """Parses a token stream into a :class:`~repro.cudalite.ast_nodes.Program`.

    The parser reads the lexer's columns, not :class:`Token` objects, and
    ``pos`` indexes them.  Lookahead compares ``texts``: an identifier or
    a number never spells a punctuator or a keyword, and only EOF has
    the empty text.  Each column ends with three copies of its EOF entry,
    so ``pos`` may step past the first one (an error always follows) and
    a lookahead of one from there still reads EOF.
    """

    def __init__(self, source: str) -> None:
        self.kinds: List[TokKind] = []
        self.texts: List[str] = []
        self.lines: List[int] = []
        self.cols: List[int] = []
        columns = (self.kinds, self.texts, self.lines, self.cols)
        scan(source, *columns)
        for column in columns:
            column += column[-1:] * 2
        self.pos = 0

    # ------------------------------------------------------------- token helpers

    def _error(self, message: str, at: Optional[int] = None) -> ParseError:
        """An error at token ``at`` (default: the next one)."""
        at = self.pos if at is None else at
        return ParseError(
            f"{message} (got {self.texts[at]!r})", self.lines[at], self.cols[at]
        )

    def _expect(self, text: str) -> None:
        """Consume the punctuator ``text``."""
        pos = self.pos
        self.pos = pos + 1
        if self.texts[pos] != text:
            raise self._error(f"expected {text!r}", pos)

    def _expect_kw(self, word: str) -> None:
        pos = self.pos
        self.pos = pos + 1
        if self.texts[pos] != word:
            raise self._error(f"expected keyword {word!r}", pos)

    def _expect_ident(self) -> str:
        pos = self.pos
        self.pos = pos + 1
        if self.kinds[pos] is not TokKind.IDENT:
            raise self._error("expected identifier", pos)
        return self.texts[pos]

    def _accept(self, text: str) -> bool:
        """Consume the next token if it is the punctuator or keyword ``text``."""
        if self.texts[self.pos] == text:
            self.pos += 1
            return True
        return False

    # ------------------------------------------------------------------ program

    def parse_program(self) -> ast.Program:
        """Parse a complete translation unit."""
        items: List[ast.Node] = []
        while self.texts[self.pos]:
            items.append(self._parse_top_item())
        return ast.Program(tuple(items))

    def _parse_top_item(self) -> ast.Node:
        text = self.texts[self.pos]
        if text == "__global__":
            return self._parse_kernel()
        if text in _TYPE_STARTS:
            return self._parse_host_func()
        raise self._error("expected kernel or host function")

    def _parse_kernel(self) -> ast.KernelDef:
        self._expect_kw("__global__")
        self._expect_kw("void")
        name = self._expect_ident()
        params = self._parse_params()
        body = self._parse_block()
        return ast.KernelDef(name, params, body)

    def _parse_host_func(self) -> ast.HostFunc:
        ret = self._parse_type()
        name = self._expect_ident()
        params = self._parse_params()
        body = self._parse_block()
        return ast.HostFunc(name, ret, params, body)

    def _parse_type(self) -> ast.TypeSpec:
        is_const = self._accept("const")
        base = self.texts[self.pos]
        if base not in _TYPE_KEYWORDS:
            raise self._error("expected type")
        self.pos += 1
        if base == "unsigned" or base == "long":
            # fold "unsigned int" / "long" spellings into plain int
            if self.texts[self.pos] in ("int", "long"):
                self.pos += 1
            base = "int"
        if not is_const:
            is_const = self._accept("const")
        is_pointer = self._accept("*")
        self._accept("__restrict__")
        return ast.TypeSpec(base, is_pointer=is_pointer, is_const=is_const)

    def _parse_params(self) -> Tuple[ast.Param, ...]:
        self._expect("(")
        params: List[ast.Param] = []
        if self.texts[self.pos] != ")":
            while True:
                ptype = self._parse_type()
                pname = self._expect_ident()
                params.append(ast.Param(ptype, pname))
                if not self._accept(","):
                    break
        self._expect(")")
        return tuple(params)

    def _parse_args(self) -> Tuple[ast.Expr, ...]:
        """A parenthesized, comma-separated expression list."""
        self._expect("(")
        args: List[ast.Expr] = []
        if self.texts[self.pos] != ")":
            while True:
                args.append(self._parse_expr())
                if not self._accept(","):
                    break
        self._expect(")")
        return tuple(args)

    # --------------------------------------------------------------- statements

    def _parse_block(self) -> ast.Block:
        self._expect("{")
        stmts: List[ast.Stmt] = []
        texts = self.texts
        while texts[self.pos] != "}":
            if not texts[self.pos]:
                raise self._error("unexpected end of input in block")
            stmts.append(self._parse_stmt())
        self.pos += 1
        return ast.Block(tuple(stmts))

    def _parse_stmt_or_block(self) -> ast.Block:
        """Parse either a block or a single statement (wrapped in a Block)."""
        if self.texts[self.pos] == "{":
            return self._parse_block()
        return ast.Block((self._parse_stmt(),))

    def _parse_stmt(self) -> ast.Stmt:
        text = self.texts[self.pos]
        if text == "{":
            return self._parse_block()
        if text == "if":
            return self._parse_if()
        if text == "for":
            return self._parse_for()
        if text == "while":
            return self._parse_while()
        if text == "return":
            self.pos += 1
            value = None
            if self.texts[self.pos] != ";":
                value = self._parse_expr()
            self._expect(";")
            return ast.Return(value)
        if text == "__shared__" or text in _TYPE_STARTS:
            return self._parse_decl()
        if text == "__syncthreads":
            self.pos += 1
            self._expect("(")
            self._expect(")")
            self._expect(";")
            return ast.SyncThreads()
        if (
            self.kinds[self.pos] is TokKind.IDENT
            and self.texts[self.pos + 1] == "<<<"
        ):
            return self._parse_launch()
        return self._parse_simple_stmt()

    def _parse_decl(self) -> ast.VarDecl:
        is_shared = self._accept("__shared__")
        vtype = self._parse_type()
        name = self._expect_ident()
        dims: List[ast.Expr] = []
        while self._accept("["):
            dims.append(self._parse_expr())
            self._expect("]")
        init: Optional[ast.Expr] = None
        if self._accept("="):
            init = self._parse_expr()
        elif self.texts[self.pos] == "(" and vtype.base == "dim3":
            # constructor-style dim3 declaration: dim3 grid(8, 8, 1);
            init = ast.Call("dim3", self._parse_args())
        self._expect(";")
        return ast.VarDecl(vtype, name, init, tuple(dims), is_shared)

    def _parse_if(self) -> ast.If:
        self._expect_kw("if")
        self._expect("(")
        cond = self._parse_expr()
        self._expect(")")
        then = self._parse_stmt_or_block()
        els: Optional[ast.Block] = None
        if self._accept("else"):
            els = self._parse_stmt_or_block()
        return ast.If(cond, then, els)

    def _parse_for(self) -> ast.For:
        """Parse a canonical counted loop.

        Supported forms::

            for (int v = start; v <  bound; v++)      { ... }
            for (int v = start; v <= bound; v += s)   { ... }
            for (v = start;     v <  bound; ++v)      { ... }
        """
        self._expect_kw("for")
        self._expect("(")
        # init
        self._accept("int")
        var = self._expect_ident()
        self._expect("=")
        start = self._parse_expr()
        self._expect(";")
        # condition
        cond_var = self._expect_ident()
        if cond_var != var:
            raise self._error(f"loop condition must test {var!r}")
        cmp = self.texts[self.pos]
        if cmp not in ("<", "<="):
            raise self._error("loop condition must use < or <=")
        self.pos += 1
        bound = self._parse_expr()
        self._expect(";")
        # update
        step: ast.Expr = ast.IntLit(1)
        if self._accept("++"):  # ++v
            upd_var = self._expect_ident()
        else:
            upd_var = self._expect_ident()
            if self._accept("++"):
                pass
            elif self._accept("+="):
                step = self._parse_expr()
            elif self._accept("="):
                # v = v + s
                lhs_name = self._expect_ident()
                if lhs_name != var:
                    raise self._error("loop update must increment the loop variable")
                self._expect("+")
                step = self._parse_expr()
            else:
                raise self._error("unsupported loop update")
        if upd_var != var:
            raise self._error(f"loop update must modify {var!r}")
        self._expect(")")
        body = self._parse_stmt_or_block()
        return ast.For(var, start, cmp, bound, step, body)

    def _parse_while(self) -> ast.While:
        self._expect_kw("while")
        self._expect("(")
        cond = self._parse_expr()
        self._expect(")")
        body = self._parse_stmt_or_block()
        return ast.While(cond, body)

    def _parse_launch(self) -> ast.Launch:
        kernel = self._expect_ident()
        self._expect("<<<")
        grid = self._parse_expr()
        self._expect(",")
        block = self._parse_expr()
        self._expect(">>>")
        args = self._parse_args()
        self._expect(";")
        return ast.Launch(kernel, grid, block, args)

    def _parse_simple_stmt(self) -> ast.Stmt:
        """Assignment, increment or expression statement."""
        expr = self._parse_expr()
        text = self.texts[self.pos]
        if text in _ASSIGN_OPS:
            self.pos += 1
            value = self._parse_expr()
            self._expect(";")
            if not isinstance(expr, (ast.Ident, ast.Index)):
                raise self._error("assignment target must be a variable or subscript")
            return ast.Assign(expr, text, value)
        if text == "++" or text == "--":
            self.pos += 1
            self._expect(";")
            if not isinstance(expr, (ast.Ident, ast.Index)):
                raise self._error("increment target must be a variable")
            delta = "+=" if text == "++" else "-="
            return ast.Assign(expr, delta, ast.IntLit(1))
        self._expect(";")
        return ast.ExprStmt(expr)

    # -------------------------------------------------------------- expressions

    def _parse_expr(self) -> ast.Expr:
        """An expression: a binary chain, or a ternary ``c ? a : b``."""
        cond = self._parse_binary(1)
        if self.texts[self.pos] == "?":
            self.pos += 1
            then = self._parse_expr()
            self._expect(":")
            els = self._parse_expr()
            return ast.Ternary(cond, then, els)
        return cond

    def _parse_binary(self, min_prec: int) -> ast.Expr:
        lhs = self._parse_unary()
        texts = self.texts
        while True:
            op = texts[self.pos]
            prec = _PRECEDENCE.get(op, 0)
            if prec < min_prec:  # min_prec >= 1: also a non-operator
                return lhs
            self.pos += 1
            rhs = self._parse_binary(prec + 1)
            lhs = ast.Binary(op, lhs, rhs)

    def _parse_unary(self) -> ast.Expr:
        op = self.texts[self.pos]
        if op not in _UNARY_OPS:
            return self._parse_postfix()
        self.pos += 1
        operand = self._parse_unary()
        if op == "+":
            return operand
        # fold negative literals for cleaner ASTs
        if op == "-" and isinstance(operand, ast.IntLit):
            return ast.IntLit(-operand.value)
        if op == "-" and isinstance(operand, ast.FloatLit):
            return ast.FloatLit(-operand.value, "-" + operand.text)
        return ast.Unary(op, operand)

    def _parse_postfix(self) -> ast.Expr:
        expr = self._parse_primary()
        texts = self.texts
        while True:
            text = texts[self.pos]
            if text == "[":
                indices: List[ast.Expr] = []
                while self._accept("["):
                    indices.append(self._parse_expr())
                    self._expect("]")
                if isinstance(expr, ast.Index):
                    expr = ast.Index(expr.base, expr.indices + tuple(indices))
                else:
                    expr = ast.Index(expr, tuple(indices))
            elif text == ".":
                self.pos += 1
                expr = ast.Member(expr, self._expect_ident())
            else:
                return expr

    def _parse_primary(self) -> ast.Expr:
        pos = self.pos
        self.pos = pos + 1
        kind = self.kinds[pos]
        text = self.texts[pos]
        if kind is TokKind.IDENT:
            if self.texts[pos + 1] == "(":
                return ast.Call(text, self._parse_args())
            return ast.Ident(text)
        if kind is TokKind.INT:
            return ast.IntLit(int(text))
        if kind is TokKind.FLOAT:
            value = float(text[:-1] if text[-1] in "fF" else text)
            return ast.FloatLit(value, text)
        if text == "(":
            expr = self._parse_expr()
            self._expect(")")
            return expr
        if text == "true":
            return ast.BoolLit(True)
        if text == "false":
            return ast.BoolLit(False)
        if text == "dim3":
            # dim3(...) constructor used as an expression
            return ast.Call("dim3", self._parse_args())
        raise self._error("expected expression", pos)


def parse_program(source: str) -> ast.Program:
    """Parse CudaLite source text into a :class:`Program`."""
    return Parser(source).parse_program()


def parse_kernel(source: str) -> ast.KernelDef:
    """Parse a source fragment containing exactly one kernel definition."""
    program = parse_program(source)
    if len(program.kernels) != 1:
        raise ParseError(
            f"expected exactly one kernel, found {len(program.kernels)}"
        )
    return program.kernels[0]


def parse_expr(source: str) -> ast.Expr:
    """Parse a standalone expression (useful in tests and builders)."""
    parser = Parser(source)
    expr = parser._parse_expr()
    if parser.texts[parser.pos]:
        raise parser._error("trailing tokens after expression")
    return expr
