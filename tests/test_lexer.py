"""Lexer unit tests."""

import hashlib
import json
from pathlib import Path

import pytest

from repro.apps import APP_NAMES, build_app
from repro.cudalite.lexer import tokenize
from repro.cudalite.tokens import TokKind
from repro.cudalite.unparser import unparse
from repro.errors import LexError


def kinds(source):
    return [t.kind for t in tokenize(source)[:-1]]


def texts(source):
    return [t.text for t in tokenize(source)[:-1]]


def test_empty_source_yields_only_eof():
    toks = tokenize("")
    assert len(toks) == 1
    assert toks[0].kind is TokKind.EOF


def test_identifier():
    toks = tokenize("alpha_1")
    assert toks[0].kind is TokKind.IDENT
    assert toks[0].text == "alpha_1"


def test_keyword_recognition():
    assert tokenize("__global__")[0].kind is TokKind.KEYWORD
    assert tokenize("double")[0].kind is TokKind.KEYWORD
    assert tokenize("doubled")[0].kind is TokKind.IDENT


def test_integer_literal():
    tok = tokenize("1234")[0]
    assert tok.kind is TokKind.INT
    assert tok.text == "1234"


def test_float_literals():
    assert tokenize("1.5")[0].kind is TokKind.FLOAT
    assert tokenize("0.25")[0].kind is TokKind.FLOAT
    assert tokenize("2.")[0].kind is TokKind.FLOAT
    assert tokenize("1e10")[0].kind is TokKind.FLOAT
    assert tokenize("1.5e-3")[0].kind is TokKind.FLOAT
    assert tokenize("3.0f")[0].kind is TokKind.FLOAT


def test_float_suffix_included_in_text():
    assert tokenize("3.0f")[0].text == "3.0f"


def test_integer_followed_by_dot_member_is_not_float():
    # "1.5" is float but "a.x" is member access
    toks = tokenize("a.x")
    assert [t.text for t in toks[:-1]] == ["a", ".", "x"]


def test_triple_angle_brackets():
    toks = texts("k<<<grid, block>>>()")
    assert "<<<" in toks and ">>>" in toks


def test_comparison_not_confused_with_launch():
    assert texts("a < b") == ["a", "<", "b"]
    assert texts("a <= b") == ["a", "<=", "b"]


def test_compound_operators():
    assert texts("a += 1; b -= 2; c *= 3; d /= 4;") == [
        "a", "+=", "1", ";", "b", "-=", "2", ";",
        "c", "*=", "3", ";", "d", "/=", "4", ";",
    ]


def test_increment_decrement():
    assert texts("i++; j--;") == ["i", "++", ";", "j", "--", ";"]


def test_logical_operators():
    assert texts("a && b || !c") == ["a", "&&", "b", "||", "!", "c"]


def test_line_comment_skipped():
    assert texts("a // comment here\nb") == ["a", "b"]


def test_block_comment_skipped():
    assert texts("a /* multi\nline */ b") == ["a", "b"]


def test_unterminated_block_comment_raises():
    with pytest.raises(LexError):
        tokenize("a /* never closed")


def test_line_and_column_tracking():
    toks = tokenize("a\n  b")
    assert (toks[0].line, toks[0].col) == (1, 1)
    assert (toks[1].line, toks[1].col) == (2, 3)


def test_unexpected_character_raises():
    with pytest.raises(LexError):
        tokenize("a $ b")


def test_lex_error_carries_position():
    try:
        tokenize("ok\n  $")
    except LexError as e:
        assert e.line == 2
        assert e.col == 3
    else:  # pragma: no cover
        pytest.fail("expected LexError")


def test_shared_keyword():
    toks = tokenize("__shared__ double tile[10][10];")
    assert toks[0].is_kw("__shared__")


def test_token_helpers():
    tok = tokenize("if")[0]
    assert tok.is_kw("if")
    assert not tok.is_kw("for")
    punct = tokenize(";")[0]
    assert punct.is_punct(";")
    assert not punct.is_punct(",")


def test_full_kernel_tokenizes():
    source = """
    __global__ void k(double *A, int n) {
        int i = blockIdx.x * blockDim.x + threadIdx.x;
        if (i < n) { A[i] = 1.0; }
    }
    """
    toks = tokenize(source)
    assert toks[-1].kind is TokKind.EOF
    assert len(toks) > 30


# ----------------------------------------------------------------- golden
#
# The token stream is the parser's whole input, so a scanner rewrite is
# safe exactly when these digests do not move.  Recorded on the
# hand-rolled character-at-a-time scanner (PR 16 tree); this block passes
# unmodified there.  The ``rung-*`` corpus entries came later and were
# recorded on the regex scanner when they were added.

GOLDEN_STREAMS = {
    "SCALE-LES": "0dcc90e17039ec3540cf51a27dff14d514f2d95e3a990357776d6502fe39c332",
    "HOMME": "7c9b4383322406744e9b4e6e65ddbbae88f6295929457559916ce68840cfcf49",
    "Fluam": "2d0f827f8863e852d481f1b0a150feb0ece5cb80223b8b601e42ad1a31726df4",
    "MITgcm": "f16f875b8b73d7e05f9e98428b556cfd1535560029e3f4e633057ee9d84e7be7",
    "AWP-ODC-GPU": "9a36672d29a9079e924655f1c48de450f665b8faa111b53e4d1df58a91687fd9",
    "B-CALM": "1744f7f0d714b6e87bb38d7e763c44c66abb4899e302454fb49793f606374c0f",
    "boundary-latency": "ee8502ee7ad0506ce05795f14318bdfe6ee290ff88bfb2402556f0630815544a",
    "deep-loops": "383a9dfb5ae83d70347eba86ff95be4793b9297abc8b7b3adec2eafe5aee138e",
    "default-a": "a2eccbfe0dd645f0d6ba4f7c6ed4e5f190aa6bc8788881fe899fa0574e939e1c",
    "default-b": "bd56deaa46f37c0139b18e9d286fdc0088452ee650a652aa0213408b1cfdaff6",
    "default-c": "1ae20da73fcc0051482e8d722e3a23c77d896af97dc3d9632572764fa6ad0c3e",
    "default-d": "4b45694e4b765ffbd5ad99d161954fc905df66c394cc7f28f8956152e7fde3d8",
    "halo-preload": "880999771e6b4b4c8ca29c6aace4dbb4e7027d791490ecb535299777cc629c72",
    "late-hazard-rollback": "ff2e0ca3e42bcf6aa4ebddcc2b5a9836676b9425d8e09ca7402ae67a3de6c0bd",
    "race-heavy": "6361a49ca5b8dda7733ee50de23d72a7ca1fcd2be107e263bcea5be0baf19764",
    "race-inplace": "ca0f1980716fefddfa8c57ad244a33b795ce94e4a848d0acc0ff0862f6d3fe0c",
    "rung-complex-none": "d6e2e7f665f9ddc9fa541f9a497b918a586517b6b7d1a882db96c49a73fa7c25",
    "rung-complex-simple": "48f3527d3b910f89c0921a2a9a305ebd7f04357d5983eb5b5d2d5446be458733",
    "rung-identity": "35960bc7465ebdb35a007aca0f767b8de191b0c13c4a649db85ad2e6ba413a54",
    "rung-simple-none": "f9d363deb3c6e63a13c8dfa641a16de07d7a3c154c41996d238b1038bae6b058",
    "shared-mixed": "86ebfbfe9043d39c662781e1a982b1d6d746f6ffc73ba79fc4ccbb6a5c2699b6",
    "shared-tiles": "492ccaa363f90d581ef56d5d551e133ffeeabfeeff33d70144cb181a3225ad04",
    "thread-invariant-oob": "ee206877e6a8598a7d9e00137220ec49b53da95371b8e85a2d95b7d17476b2b3",
    "unlowerable-mixed": "70f337c2a44ac93b3861fa5c38882595443b1bea4be189a88636734476e0e1b4",
    "unlowerable": "294cabf18dbf85ea5206a8fbc7cb7f2aa685e7145db3d0a7e457a58c311a1ac7",
}

CORPUS = Path(__file__).parent / "corpus"


def _golden_source(name):
    if name in APP_NAMES:
        return unparse(build_app(name, scale=0.5).program)
    return json.loads((CORPUS / f"{name}.json").read_text())["source"]


def stream(source):
    return [(t.kind.name, t.text, t.line, t.col) for t in tokenize(source)]


def test_golden_covers_every_paper_app_and_corpus_entry():
    corpus = {p.stem for p in CORPUS.glob("*.json")}
    assert set(GOLDEN_STREAMS) == set(APP_NAMES) | corpus


@pytest.mark.parametrize("name", sorted(GOLDEN_STREAMS))
def test_token_stream_matches_the_golden_digest(name):
    digest = hashlib.sha256()
    for token in stream(_golden_source(name)):
        digest.update(repr(token).encode())
    assert digest.hexdigest() == GOLDEN_STREAMS[name]


# ------------------------------------------------------------- edge table

EDGE_STREAMS = {
    "": [("EOF", "", 1, 1)],
    # a trailing "." joins the number only at end of input ...
    "1.": [("FLOAT", "1.", 1, 1), ("EOF", "", 1, 3)],
    # ... anywhere else it is a member access
    "1. ": [("INT", "1", 1, 1), ("PUNCT", ".", 1, 2), ("EOF", "", 1, 4)],
    "1.x": [("INT", "1", 1, 1), ("PUNCT", ".", 1, 2), ("IDENT", "x", 1, 3),
            ("EOF", "", 1, 4)],
    ".5": [("FLOAT", ".5", 1, 1), ("EOF", "", 1, 3)],
    "1e5": [("FLOAT", "1e5", 1, 1), ("EOF", "", 1, 4)],
    "1e": [("INT", "1", 1, 1), ("IDENT", "e", 1, 2), ("EOF", "", 1, 3)],
    "1e+": [("INT", "1", 1, 1), ("IDENT", "e", 1, 2), ("PUNCT", "+", 1, 3),
            ("EOF", "", 1, 4)],
    "1.5e-3f": [("FLOAT", "1.5e-3f", 1, 1), ("EOF", "", 1, 8)],
    "1f": [("FLOAT", "1f", 1, 1), ("EOF", "", 1, 3)],
    "7.f": [("INT", "7", 1, 1), ("PUNCT", ".", 1, 2), ("IDENT", "f", 1, 3),
            ("EOF", "", 1, 4)],
    "3.e5": [("INT", "3", 1, 1), ("PUNCT", ".", 1, 2), ("IDENT", "e5", 1, 3),
             ("EOF", "", 1, 5)],
    "1..2": [("INT", "1", 1, 1), ("PUNCT", ".", 1, 2), ("FLOAT", ".2", 1, 3),
             ("EOF", "", 1, 5)],
    "a.b": [("IDENT", "a", 1, 1), ("PUNCT", ".", 1, 2), ("IDENT", "b", 1, 3),
            ("EOF", "", 1, 4)],
    "x<<<1,2>>>y": [
        ("IDENT", "x", 1, 1), ("PUNCT", "<<<", 1, 2), ("INT", "1", 1, 5),
        ("PUNCT", ",", 1, 6), ("INT", "2", 1, 7), ("PUNCT", ">>>", 1, 8),
        ("IDENT", "y", 1, 11), ("EOF", "", 1, 12),
    ],
    # "\r" and "\t" are one column each; only "\n" starts a line
    "a\r\nb": [("IDENT", "a", 1, 1), ("IDENT", "b", 2, 1), ("EOF", "", 2, 2)],
    "a\tb": [("IDENT", "a", 1, 1), ("IDENT", "b", 1, 3), ("EOF", "", 1, 4)],
    "a /* x\n y */ b": [("IDENT", "a", 1, 1), ("IDENT", "b", 2, 7),
                        ("EOF", "", 2, 8)],
    "a // c /* not open\nb": [("IDENT", "a", 1, 1), ("IDENT", "b", 2, 1),
                              ("EOF", "", 2, 2)],
}


@pytest.mark.parametrize("source", sorted(EDGE_STREAMS), ids=repr)
def test_edge_token_streams(source):
    assert stream(source) == EDGE_STREAMS[source]


EDGE_ERRORS = {
    "a /* x": ("1:3: unterminated block comment", 1, 3),
    "/*": ("1:1: unterminated block comment", 1, 1),
    # the "*" that opens the comment cannot also close it
    "a /*/ b": ("1:3: unterminated block comment", 1, 3),
    "a\n /* x\n": ("2:2: unterminated block comment", 2, 2),
    "a @ b": ("1:3: unexpected character '@'", 1, 3),
    "ok\n  $": ("2:3: unexpected character '$'", 2, 3),
    # form feed is not CudaLite whitespace, nor are non-ASCII digits/letters
    "a \f": ("1:3: unexpected character '\\x0c'", 1, 3),
    "٣": ("1:1: unexpected character '٣'", 1, 1),
}


@pytest.mark.parametrize("source", sorted(EDGE_ERRORS), ids=repr)
def test_edge_lex_errors(source):
    with pytest.raises(LexError) as excinfo:
        tokenize(source)
    error = excinfo.value
    assert (str(error), error.line, error.col) == EDGE_ERRORS[source]


def test_tokens_before_an_error_are_still_yielded():
    from repro.cudalite.lexer import Lexer

    lexed = Lexer("a b $").tokens()
    assert [next(lexed).text, next(lexed).text] == ["a", "b"]
    with pytest.raises(LexError):
        next(lexed)
