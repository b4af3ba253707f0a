"""Regex lexer for the CudaLite dialect.

One compiled master pattern matches, per token, the trivia before it
(whitespace, ``//`` line comments, ``/* */`` block comments) and then the
token itself.  :func:`scan` records each token's kind, spelling and
1-based line/column position (for error reporting) in four parallel
lists, which the parser reads; :func:`tokenize` turns them into
:class:`~repro.cudalite.tokens.Token` objects.
"""

from __future__ import annotations

import re
import string
from itertools import repeat
from typing import Iterator, List

from ..errors import LexError
from .tokens import KEYWORDS, PUNCTUATORS, TokKind, Token

_TRIVIA = r"(?:[ \t\r\n]+|//[^\n]*|/\*.*?\*/)*"
#: digits with an optional fraction (``1.`` only at end of input: ``1.x``
#: is a member access), or ``.5``; then exponent and CUDA float suffix
_NUMBER = r"(?:[0-9]+(?:\.(?:[0-9]+|\Z))?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?[fF]?"
_IDENT = r"[A-Za-z_][A-Za-z0-9_]*"
#: a ``/*`` the trivia did not consume has no closing ``*/``
_OPEN_COMMENT = r"/\*"
#: PUNCTUATORS is longest-first, so alternation order is greedy matching
_PUNCT = "|".join(re.escape(p) for p in PUNCTUATORS)

_TOKEN = re.compile(
    rf"({_TRIVIA})({_NUMBER}|{_IDENT}|{_OPEN_COMMENT}|{_PUNCT})?", re.DOTALL
)

#: the kind of every spelling that has a fixed one; any other token is an
#: identifier (by its first character), a number or an open ``/*``
_FIXED_KINDS = {
    **{word: TokKind.KEYWORD for word in KEYWORDS},
    **{punct: TokKind.PUNCT for punct in PUNCTUATORS},
}
_IDENT_START = frozenset(string.ascii_letters + "_")


def scan(src: str, kinds: list, texts: list, lines: list, cols: list) -> None:
    """Append each token's fields to the four lists, ending with EOF;
    raise :class:`LexError` at the first character no token starts with."""
    kind_of = _FIXED_KINDS
    add_kind, add_text = kinds.append, texts.append
    add_line, add_col = lines.append, cols.append
    pos, line, line_start = 0, 1, 0
    for trivia, text in _TOKEN.findall(src):
        if trivia:
            if "\n" in trivia:
                line += trivia.count("\n")
                line_start = pos + trivia.rfind("\n") + 1
            pos += len(trivia)
        col = pos - line_start + 1
        kind = kind_of.get(text)
        if kind is None:
            if not text:  # no token after the trivia: the end, or an error
                if pos < len(src):
                    raise LexError(f"unexpected character {src[pos]!r}", line, col)
                kind = TokKind.EOF
            elif text[0] in _IDENT_START:
                kind = TokKind.IDENT
            elif text == "/*":  # the trivia did not find its ``*/``
                raise LexError("unterminated block comment", line, col)
            else:
                kind = TokKind.INT if text.isdigit() else TokKind.FLOAT
        add_kind(kind)
        add_text(text)
        add_line(line)
        add_col(col)
        if kind is TokKind.EOF:
            return
        pos += len(text)


def _as_tokens(*columns: list) -> Iterator[Token]:
    # tuple.__new__ builds a Token without its Python-level constructor
    return map(tuple.__new__, repeat(Token), zip(*columns))


class Lexer:
    """Tokenizes CudaLite source text.

    Parameters
    ----------
    source:
        The program text.

    Use :meth:`tokenize` to obtain the full token list (terminated by a
    single EOF token).
    """

    def __init__(self, source: str) -> None:
        self.src = source

    def tokens(self) -> Iterator[Token]:
        """Yield tokens one at a time, ending with an EOF token; a
        :class:`LexError` is raised after the tokens before it."""
        columns = ([], [], [], [])
        try:
            scan(self.src, *columns)
        finally:
            yield from _as_tokens(*columns)

    def tokenize(self) -> List[Token]:
        """Return the complete token list (terminated by EOF)."""
        columns = ([], [], [], [])
        scan(self.src, *columns)
        return list(_as_tokens(*columns))


def tokenize(source: str) -> List[Token]:
    """Convenience wrapper: tokenize ``source`` and return the token list."""
    return Lexer(source).tokenize()
