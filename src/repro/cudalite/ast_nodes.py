"""Abstract syntax tree for the CudaLite dialect.

The node set is intentionally small: it covers exactly the constructs that
dense-grid stencil CUDA kernels and their host drivers need.  Nodes are
dataclasses; equality ignores source locations so that round-trip tests
(``parse(unparse(ast)) == ast``) are meaningful.

Expression nodes
    :class:`IntLit`, :class:`FloatLit`, :class:`BoolLit`, :class:`Ident`,
    :class:`Member`, :class:`Index`, :class:`Call`, :class:`Unary`,
    :class:`Binary`, :class:`Ternary`.

Statement nodes
    :class:`VarDecl`, :class:`Assign`, :class:`ExprStmt`, :class:`If`,
    :class:`For`, :class:`While`, :class:`Return`, :class:`Block`,
    :class:`Launch`, :class:`SyncThreads`.

Top level
    :class:`Param`, :class:`KernelDef`, :class:`HostFunc`, :class:`Program`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterator, List, Optional, Tuple, Union

# --------------------------------------------------------------------------- types


@dataclass(frozen=True)
class TypeSpec:
    """A CudaLite type: base name plus pointer/const qualifiers.

    ``base`` is one of ``void int float double bool dim3``.
    """

    base: str
    is_pointer: bool = False
    is_const: bool = False

    def __str__(self) -> str:
        parts = []
        if self.is_const:
            parts.append("const")
        parts.append(self.base)
        text = " ".join(parts)
        return text + " *" if self.is_pointer else text

    @property
    def itemsize(self) -> int:
        """Byte width of one element of this type (4 or 8)."""
        return {"double": 8, "float": 4, "int": 4, "bool": 1}.get(self.base, 8)


DOUBLE = TypeSpec("double")
FLOAT = TypeSpec("float")
INT = TypeSpec("int")
DOUBLE_PTR = TypeSpec("double", is_pointer=True)
FLOAT_PTR = TypeSpec("float", is_pointer=True)


# ----------------------------------------------------------------------- base node


@dataclass(frozen=True)
class Node:
    """Base class for all AST nodes."""

    def children(self) -> Iterator["Node"]:
        """Yield direct child nodes (expressions and statements)."""
        for value in self.__dict__.values():
            if isinstance(value, Node):
                yield value
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Node):
                        yield item

    def walk(self) -> Iterator["Node"]:
        """Yield this node and all descendants in preorder."""
        # explicit stack, children pushed reversed: a recursive ``yield
        # from`` resumes one generator per level of depth for every node
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(tuple(node.children())))


class Expr(Node):
    """Marker base class for expression nodes."""


class Stmt(Node):
    """Marker base class for statement nodes."""


# -------------------------------------------------------------------- expressions


@dataclass(frozen=True)
class IntLit(Expr):
    """Integer literal."""

    value: int


@dataclass(frozen=True)
class FloatLit(Expr):
    """Floating-point literal. ``text`` preserves the source spelling."""

    value: float
    text: str = ""

    def __post_init__(self) -> None:
        if not self.text:
            object.__setattr__(self, "text", repr(self.value))


@dataclass(frozen=True)
class BoolLit(Expr):
    """``true`` / ``false`` literal."""

    value: bool


@dataclass(frozen=True)
class Ident(Expr):
    """A name reference."""

    name: str


@dataclass(frozen=True)
class Member(Expr):
    """Member access such as ``threadIdx.x``."""

    obj: Expr
    field_name: str


@dataclass(frozen=True)
class Index(Expr):
    """Array subscript chain ``base[e0][e1]...`` collapsed into one node."""

    base: Expr
    indices: Tuple[Expr, ...]

    @property
    def array_name(self) -> Optional[str]:
        """The indexed array's name if the base is a plain identifier."""
        return self.base.name if isinstance(self.base, Ident) else None


@dataclass(frozen=True)
class Call(Expr):
    """Function call ``func(args...)`` (math builtins, dim3, host intrinsics)."""

    func: str
    args: Tuple[Expr, ...]


@dataclass(frozen=True)
class Unary(Expr):
    """Prefix unary operation: ``-x``, ``!x``, ``+x``."""

    op: str
    operand: Expr


@dataclass(frozen=True)
class Binary(Expr):
    """Binary operation with C semantics for the supported operator set."""

    op: str
    lhs: Expr
    rhs: Expr


@dataclass(frozen=True)
class Ternary(Expr):
    """Conditional expression ``cond ? then : els``."""

    cond: Expr
    then: Expr
    els: Expr


# --------------------------------------------------------------------- statements


@dataclass(frozen=True)
class VarDecl(Stmt):
    """A declaration, optionally initialized.

    ``array_dims`` is non-empty for array declarations such as
    ``__shared__ double tile[18][18];``.  ``is_shared`` marks ``__shared__``
    storage.
    """

    type: TypeSpec
    name: str
    init: Optional[Expr] = None
    array_dims: Tuple[Expr, ...] = ()
    is_shared: bool = False


@dataclass(frozen=True)
class Assign(Stmt):
    """Assignment ``target op value`` where op is ``=``, ``+=``, ``-=``, ...."""

    target: Expr
    op: str
    value: Expr


@dataclass(frozen=True)
class ExprStmt(Stmt):
    """A bare expression statement (e.g. a call)."""

    expr: Expr


@dataclass(frozen=True)
class SyncThreads(Stmt):
    """``__syncthreads();`` — a block-level barrier."""


@dataclass(frozen=True)
class Block(Stmt):
    """A ``{ ... }`` statement list."""

    stmts: Tuple[Stmt, ...]


@dataclass(frozen=True)
class If(Stmt):
    """``if (cond) then [else els]``; branches are always Blocks."""

    cond: Expr
    then: Block
    els: Optional[Block] = None


@dataclass(frozen=True)
class For(Stmt):
    """Canonical counted loop ``for (int v = start; v <op> bound; v += step)``.

    ``cmp`` is ``<`` or ``<=``; ``step`` defaults to 1 (``v++``).
    """

    var: str
    start: Expr
    cmp: str
    bound: Expr
    step: Expr
    body: Block


@dataclass(frozen=True)
class While(Stmt):
    """``while (cond) body`` (used rarely; kept for completeness)."""

    cond: Expr
    body: Block


@dataclass(frozen=True)
class Return(Stmt):
    """``return [expr];``"""

    value: Optional[Expr] = None


@dataclass(frozen=True)
class Launch(Stmt):
    """Kernel launch ``kernel<<<grid, block>>>(args...);`` (host-side)."""

    kernel: str
    grid: Expr
    block: Expr
    args: Tuple[Expr, ...]


# ---------------------------------------------------------------------- top level


@dataclass(frozen=True)
class Param(Node):
    """A formal parameter of a kernel or host function."""

    type: TypeSpec
    name: str


@dataclass(frozen=True)
class KernelDef(Node):
    """A ``__global__ void name(params) { body }`` definition."""

    name: str
    params: Tuple[Param, ...]
    body: Block

    def param_names(self) -> Tuple[str, ...]:
        return tuple(p.name for p in self.params)

    def pointer_params(self) -> Tuple[Param, ...]:
        """Parameters that are device array pointers."""
        return tuple(p for p in self.params if p.type.is_pointer)

    def scalar_params(self) -> Tuple[Param, ...]:
        """Parameters passed by value (sizes, coefficients)."""
        return tuple(p for p in self.params if not p.type.is_pointer)


@dataclass(frozen=True)
class HostFunc(Node):
    """A host-side function (typically ``int main``)."""

    name: str
    ret_type: TypeSpec
    params: Tuple[Param, ...]
    body: Block


@dataclass(frozen=True)
class Program(Node):
    """A full CudaLite translation unit."""

    items: Tuple[Node, ...]

    @property
    def kernels(self) -> Tuple[KernelDef, ...]:
        return tuple(i for i in self.items if isinstance(i, KernelDef))

    @property
    def host_funcs(self) -> Tuple[HostFunc, ...]:
        return tuple(i for i in self.items if isinstance(i, HostFunc))

    def kernel(self, name: str) -> KernelDef:
        """Return the kernel definition named ``name``.

        Raises
        ------
        KeyError
            If no kernel with that name exists.
        """
        for k in self.kernels:
            if k.name == name:
                return k
        raise KeyError(f"no kernel named {name!r}")

    def main(self) -> HostFunc:
        """Return the host entry function (named ``main``)."""
        for f in self.host_funcs:
            if f.name == "main":
                return f
        raise KeyError("program has no main()")

    def replace_kernels(
        self, new_kernels: Tuple[KernelDef, ...], new_main: Optional[HostFunc] = None
    ) -> "Program":
        """Return a program with all kernels (and optionally main) replaced.

        Non-kernel, non-main items are preserved in their original order;
        new kernels are placed before host functions.
        """
        others = [
            i
            for i in self.items
            if not isinstance(i, KernelDef)
            and not (isinstance(i, HostFunc) and i.name == "main" and new_main)
        ]
        host = [i for i in others if isinstance(i, HostFunc)]
        rest = [i for i in others if not isinstance(i, HostFunc)]
        items: List[Node] = list(rest) + list(new_kernels)
        if new_main is not None:
            items += [new_main]
        items += host
        return Program(tuple(items))


#: Union type of things accepted where an lvalue is expected.
LValue = Union[Ident, Index]


def clone_with(node: Node, **changes) -> Node:
    """Return a copy of ``node`` with the given fields replaced."""
    return replace(node, **changes)
