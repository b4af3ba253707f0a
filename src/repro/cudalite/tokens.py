"""Token definitions for the CudaLite dialect.

CudaLite is a small CUDA-C dialect covering exactly the constructs the
HPDC'15 transformation framework operates on: ``__global__`` stencil kernels,
thread-index expressions, ``__shared__`` tiles, ``__syncthreads()`` and a
simplified host side with ``<<<grid, block>>>`` launches.
"""

from __future__ import annotations

from enum import Enum, auto
from typing import NamedTuple


class TokKind(Enum):
    """Kinds of lexical tokens."""

    IDENT = auto()
    INT = auto()
    FLOAT = auto()
    KEYWORD = auto()
    PUNCT = auto()
    EOF = auto()


#: Reserved words of the dialect.  ``dim3`` is a type keyword because host
#: code declares launch configurations with it.
KEYWORDS = frozenset(
    {
        "__global__",
        "__device__",
        "__shared__",
        "__restrict__",
        "const",
        "void",
        "int",
        "unsigned",
        "long",
        "float",
        "double",
        "bool",
        "dim3",
        "if",
        "else",
        "for",
        "while",
        "return",
        "true",
        "false",
    }
)

#: Multi-character punctuators, longest first so the lexer can match greedily.
#: ``<<<`` / ``>>>`` delimit kernel launch configurations (CudaLite has no
#: shift operators, so the triple brackets are unambiguous).
PUNCTUATORS = (
    "<<<",
    ">>>",
    "&&",
    "||",
    "==",
    "!=",
    "<=",
    ">=",
    "+=",
    "-=",
    "*=",
    "/=",
    "++",
    "--",
    "(",
    ")",
    "{",
    "}",
    "[",
    "]",
    ";",
    ",",
    ".",
    "<",
    ">",
    "=",
    "+",
    "-",
    "*",
    "/",
    "%",
    "!",
    "?",
    ":",
    "&",
)


class Token(NamedTuple):
    """A single lexical token.

    An immutable tuple: the lexer builds each one with ``tuple.__new__``,
    skipping the constructor call a frozen dataclass pays per token.

    Attributes
    ----------
    kind:
        The token class (identifier, literal, keyword, punctuator, EOF).
    text:
        The exact source spelling.
    line, col:
        1-based source position of the first character.
    """

    kind: TokKind
    text: str
    line: int
    col: int

    def is_kw(self, word: str) -> bool:
        """Return True if this token is the keyword ``word``."""
        return self.kind is TokKind.KEYWORD and self.text == word

    def is_punct(self, text: str) -> bool:
        """Return True if this token is the punctuator ``text``."""
        return self.kind is TokKind.PUNCT and self.text == text

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.kind.name}, {self.text!r}, {self.line}:{self.col})"
