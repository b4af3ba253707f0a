"""Regex lexer for the CudaLite dialect.

One compiled master pattern matches, per token, the trivia before it
(whitespace, ``//`` line comments, ``/* */`` block comments) and then the
token itself, producing :class:`~repro.cudalite.tokens.Token` objects with
1-based line/column positions for error reporting.
"""

from __future__ import annotations

import re
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
    rf"({_TRIVIA})(?:({_NUMBER})|({_IDENT})|({_OPEN_COMMENT})|({_PUNCT}))?",
    re.DOTALL,
)


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
        """Yield tokens one at a time, ending with an EOF token."""
        src = self.src
        pos, line, line_start = 0, 1, 0
        for match in _TOKEN.finditer(src):
            trivia, number, ident, open_comment, punct = match.groups("")
            if trivia:
                if "\n" in trivia:
                    line += trivia.count("\n")
                    line_start = pos + trivia.rfind("\n") + 1
                pos += len(trivia)
            col = pos - line_start + 1
            if punct:
                yield Token(TokKind.PUNCT, punct, line, col)
            elif ident:
                kind = TokKind.KEYWORD if ident in KEYWORDS else TokKind.IDENT
                yield Token(kind, ident, line, col)
            elif number:
                kind = TokKind.INT if number.isdigit() else TokKind.FLOAT
                yield Token(kind, number, line, col)
            elif open_comment:
                raise LexError("unterminated block comment", line, col)
            elif pos >= len(src):
                yield Token(TokKind.EOF, "", line, col)
                return
            else:
                raise LexError(f"unexpected character {src[pos]!r}", line, col)
            pos = match.end()

    def tokenize(self) -> List[Token]:
        """Return the complete token list (terminated by EOF)."""
        return list(self.tokens())


def tokenize(source: str) -> List[Token]:
    """Convenience wrapper: tokenize ``source`` and return the token list."""
    return Lexer(source).tokenize()
