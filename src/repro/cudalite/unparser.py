"""Unparser: turns CudaLite ASTs back into readable source text.

The paper emphasises that generated kernels remain *highly readable* so the
programmer can amend them; this unparser therefore produces conventionally
formatted CUDA-style code (4-space indents, one statement per line, minimal
parentheses driven by operator precedence).

The emitted text is guaranteed to re-parse to an equal AST (round-trip
property, tested with hypothesis).
"""

from __future__ import annotations

import weakref
from typing import Dict, List

from . import ast_nodes as ast

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
_UNARY_PREC = 7
_POSTFIX_PREC = 8
_TERNARY_PREC = 0


class Unparser:
    """Stateful pretty-printer over the immutable AST."""

    def __init__(self, indent: str = "    ") -> None:
        self.indent = indent
        self.lines: List[str] = []
        self.depth = 0

    # -------------------------------------------------------------------- emit

    def _line(self, text: str) -> None:
        self.lines.append(self.indent * self.depth + text)

    def unparse(self, node: ast.Node) -> str:
        """Render ``node`` (a Program, KernelDef, HostFunc or Stmt) to text."""
        self.lines = []
        self._emit_node(node)
        return "\n".join(self.lines) + "\n"

    def _emit_node(self, node: ast.Node) -> None:
        if isinstance(node, ast.Program):
            for idx, item in enumerate(node.items):
                if idx:
                    self.lines.append("")
                self._emit_node(item)
        elif isinstance(node, ast.KernelDef):
            params = ", ".join(self._param(p) for p in node.params)
            self._line(f"__global__ void {node.name}({params}) {{")
            self._emit_block_body(node.body)
            self._line("}")
        elif isinstance(node, ast.HostFunc):
            params = ", ".join(self._param(p) for p in node.params)
            self._line(f"{self._type(node.ret_type)} {node.name}({params}) {{")
            self._emit_block_body(node.body)
            self._line("}")
        elif isinstance(node, ast.Stmt):
            self._emit_stmt(node)
        else:  # pragma: no cover - defensive
            raise TypeError(f"cannot unparse {type(node).__name__}")

    def _param(self, param: ast.Param) -> str:
        type_text = self._type(param.type)
        sep = "" if type_text.endswith("*") else " "
        return f"{type_text}{sep}{param.name}"

    @staticmethod
    def _type(spec: ast.TypeSpec) -> str:
        parts = []
        if spec.is_const:
            parts.append("const")
        parts.append(spec.base)
        text = " ".join(parts)
        return text + " *" if spec.is_pointer else text

    # -------------------------------------------------------------- statements

    def _emit_block_body(self, block: ast.Block) -> None:
        self.depth += 1
        for stmt in block.stmts:
            self._emit_stmt(stmt)
        self.depth -= 1

    def _emit_stmt(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.Block):
            self._line("{")
            self._emit_block_body(stmt)
            self._line("}")
        elif isinstance(stmt, ast.VarDecl):
            self._line(self._decl_text(stmt))
        elif isinstance(stmt, ast.Assign):
            target = self._expr(stmt.target, _TERNARY_PREC)
            value = self._expr(stmt.value, _TERNARY_PREC)
            self._line(f"{target} {stmt.op} {value};")
        elif isinstance(stmt, ast.ExprStmt):
            self._line(self._expr(stmt.expr, _TERNARY_PREC) + ";")
        elif isinstance(stmt, ast.SyncThreads):
            self._line("__syncthreads();")
        elif isinstance(stmt, ast.If):
            cond = self._expr(stmt.cond, _TERNARY_PREC)
            self._line(f"if ({cond}) {{")
            self._emit_block_body(stmt.then)
            if stmt.els is not None:
                self._line("} else {")
                self._emit_block_body(stmt.els)
            self._line("}")
        elif isinstance(stmt, ast.For):
            start = self._expr(stmt.start, _TERNARY_PREC)
            bound = self._expr(stmt.bound, _TERNARY_PREC)
            if isinstance(stmt.step, ast.IntLit) and stmt.step.value == 1:
                update = f"{stmt.var}++"
            else:
                update = f"{stmt.var} += {self._expr(stmt.step, _TERNARY_PREC)}"
            self._line(
                f"for (int {stmt.var} = {start}; {stmt.var} {stmt.cmp} {bound}; "
                f"{update}) {{"
            )
            self._emit_block_body(stmt.body)
            self._line("}")
        elif isinstance(stmt, ast.While):
            self._line(f"while ({self._expr(stmt.cond, _TERNARY_PREC)}) {{")
            self._emit_block_body(stmt.body)
            self._line("}")
        elif isinstance(stmt, ast.Return):
            if stmt.value is None:
                self._line("return;")
            else:
                self._line(f"return {self._expr(stmt.value, _TERNARY_PREC)};")
        elif isinstance(stmt, ast.Launch):
            grid = self._expr(stmt.grid, _TERNARY_PREC)
            block = self._expr(stmt.block, _TERNARY_PREC)
            args = ", ".join(self._expr(a, _TERNARY_PREC) for a in stmt.args)
            self._line(f"{stmt.kernel}<<<{grid}, {block}>>>({args});")
        else:  # pragma: no cover - defensive
            raise TypeError(f"cannot unparse statement {type(stmt).__name__}")

    def _decl_text(self, decl: ast.VarDecl) -> str:
        prefix = "__shared__ " if decl.is_shared else ""
        type_text = self._type(decl.type)
        sep = "" if type_text.endswith("*") else " "
        text = f"{prefix}{type_text}{sep}{decl.name}"
        for dim in decl.array_dims:
            text += f"[{self._expr(dim, _TERNARY_PREC)}]"
        if decl.init is not None:
            if decl.type.base == "dim3" and isinstance(decl.init, ast.Call):
                args = ", ".join(
                    self._expr(a, _TERNARY_PREC) for a in decl.init.args
                )
                return f"{text}({args});"
            text += f" = {self._expr(decl.init, _TERNARY_PREC)}"
        return text + ";"

    # ------------------------------------------------------------- expressions

    def _expr(self, expr: ast.Expr, parent_prec: int) -> str:
        text, prec = self._expr_with_prec(expr)
        if prec < parent_prec:
            return f"({text})"
        return text

    def _expr_with_prec(self, expr: ast.Expr):
        if isinstance(expr, ast.IntLit):
            if expr.value < 0:
                return str(expr.value), _UNARY_PREC
            return str(expr.value), _POSTFIX_PREC
        if isinstance(expr, ast.FloatLit):
            return expr.text, _POSTFIX_PREC if not expr.text.startswith("-") else _UNARY_PREC
        if isinstance(expr, ast.BoolLit):
            return ("true" if expr.value else "false"), _POSTFIX_PREC
        if isinstance(expr, ast.Ident):
            return expr.name, _POSTFIX_PREC
        if isinstance(expr, ast.Member):
            return f"{self._expr(expr.obj, _POSTFIX_PREC)}.{expr.field_name}", _POSTFIX_PREC
        if isinstance(expr, ast.Index):
            base = self._expr(expr.base, _POSTFIX_PREC)
            subs = "".join(f"[{self._expr(i, _TERNARY_PREC)}]" for i in expr.indices)
            return base + subs, _POSTFIX_PREC
        if isinstance(expr, ast.Call):
            args = ", ".join(self._expr(a, _TERNARY_PREC) for a in expr.args)
            return f"{expr.func}({args})", _POSTFIX_PREC
        if isinstance(expr, ast.Unary):
            operand = self._expr(expr.operand, _UNARY_PREC)
            if expr.op == "-" and operand.startswith("-"):
                # avoid emitting "--x", which would lex as a decrement
                operand = f"({operand})"
            return f"{expr.op}{operand}", _UNARY_PREC
        if isinstance(expr, ast.Binary):
            prec = _PRECEDENCE[expr.op]
            lhs = self._expr(expr.lhs, prec)
            # right operand needs strictly higher precedence (left-assoc ops)
            rhs = self._expr(expr.rhs, prec + 1)
            return f"{lhs} {expr.op} {rhs}", prec
        if isinstance(expr, ast.Ternary):
            cond = self._expr(expr.cond, 1)
            then = self._expr(expr.then, _TERNARY_PREC)
            els = self._expr(expr.els, _TERNARY_PREC)
            return f"{cond} ? {then} : {els}", _TERNARY_PREC
        raise TypeError(f"cannot unparse expression {type(expr).__name__}")


#: id(Program | KernelDef) -> its text; entries leave with their node (the
#: scheme of ``gpu.interpreter._kernel_facts``: the frozen AST hashes by
#: content, which would cost the walk this memo avoids)
_TEXTS: Dict[int, str] = {}


def _memo_text(node: ast.Node) -> str:
    """The text of a program or kernel, rendered once per object.

    A program's text is its items' texts joined by blank lines, so a
    transformed program reuses the text of every kernel it kept.
    """
    text = _TEXTS.get(id(node))
    if text is None:
        if isinstance(node, ast.Program) and node.items:
            text = "\n".join(
                _memo_text(item)
                if isinstance(item, ast.KernelDef)
                else Unparser().unparse(item)
                for item in node.items
            )
        else:
            text = Unparser().unparse(node)
        _TEXTS[id(node)] = text
        weakref.finalize(node, _TEXTS.pop, id(node), None)
    return text


def unparse(node: ast.Node) -> str:
    """Render an AST node to CudaLite source text.

    Programs and kernels are immutable, so each object is rendered once
    and later calls are a dict probe.
    """
    if isinstance(node, (ast.Program, ast.KernelDef)):
        return _memo_text(node)
    return Unparser().unparse(node)


def unparse_expr(expr: ast.Expr) -> str:
    """Render a single expression to text."""
    return Unparser()._expr(expr, _TERNARY_PREC)
